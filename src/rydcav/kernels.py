"""The response-integral kernel: a blocked linear scan.

The response integral obeys the first-order linear recurrence

    b_k = d_k b_{k-1} + c_k,   d_k = exp(a_k),   c_k = expm1(a_k) / zm_k,

with ``zm_k`` the midpoint of z over step k and ``a_k = zm_k dt``.  Over a
block of steps it has the closed form (a scan; Blelloch 1990,
CMU-CS-90-190; Martin & Cundy 2018, arXiv:1709.04057)

    b_k = D_k (b_0 + sum_{j<=k} c_j / D_j),   D_k = exp(a_1 + ... + a_k),

which numpy evaluates with one ``cumsum`` for the exponents and one for the
sum.  The trace is walked one block of :data:`BLOCK` steps at a time, the
last value of a block seeding the next, so every temporary holds one block
and memory beyond the output stays O(BLOCK) at any trace length.

Blocks also keep ``exp`` in range: 1/D_k grows as exp(kappa/2 * k dt), and
with dt <= (2/kappa)/20 (the grid limit of
:func:`rydcav.transmission.transmission_response`) one block spans at most
exp(0.05 * BLOCK), about 1e89 for BLOCK = 4096 (under exp(:data:`EXP_SPAN`)),
where a whole-trace scan of 1e6 samples would overflow.  Coarser inputs get
shorter blocks, so that no block spans more than exp(:data:`EXP_SPAN`).
"""

from __future__ import annotations

import numpy as np

BLOCK = 4096  # steps per scan block
EXP_SPAN = 600.0  # largest |Re(a_1 + ... + a_k)| within one block (exp overflows past 709)


def response_filter(z, dt, b0):
    """Recursive update of the input-output response integral.

    ``z[n] = i*delta_m - kappa/2 - i*chi[n]`` per sample; ``b0`` is the
    initial value of the integral.  Each step treats z as constant at its
    midpoint value, so the per-step propagator is exact for piecewise
    constant z and second-order accurate for smooth chi(t).
    """
    z = np.ascontiguousarray(z, dtype=np.complex128)
    dt = float(dt)
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = z.shape[0]
    out = np.empty(n, dtype=np.complex128)
    out[0] = b = complex(b0)
    growth = dt * max(z.real.max(), -z.real.min())  # largest |Re(a_k)|
    block = max(1, int(EXP_SPAN / growth)) if growth * BLOCK > EXP_SPAN else BLOCK
    for s0 in range(1, n, block):
        s1 = min(s0 + block, n)
        zm = z[s0:s1] + z[s0 - 1:s1 - 1]
        zm *= 0.5
        a = zm * dt
        c = np.expm1(a)
        c /= zm
        np.cumsum(a, out=a)
        np.negative(a, out=a)
        inv_d = np.exp(a, out=a)  # 1 / D_k
        c *= inv_d
        np.cumsum(c, out=c)
        c += b
        np.divide(c, inv_d, out=out[s0:s1])
        b = out[s1 - 1]
    return out
