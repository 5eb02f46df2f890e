"""The response-integral kernel: a blocked linear scan.

The response integral obeys the first-order linear recurrence

    b_k = d_k b_{k-1} + c_k,   d_k = 1 + e_k,   c_k = e_k / zm_k,   e_k = expm1(a_k),

with ``zm_k`` the midpoint of z over step k and ``a_k = zm_k dt``.  Over a
block of steps it has the closed form (a scan; Blelloch 1990,
CMU-CS-90-190; Martin & Cundy 2018, arXiv:1709.04057)

    b_k = D_k (b_0 + sum_{j<=k} c_j / D_j),   D_k = d_1 d_2 ... d_k,

which numpy evaluates with one ``cumprod`` for the running product D_k and
one ``cumsum`` for the sum.  A running product of k factors has a relative
error bound of order k*u (Higham 2002, sec. 3.1), under 1e-12 for
k <= :data:`BLOCK`.
The trace is walked one block of :data:`BLOCK` steps at a time, the last
value of a block seeding the next, so every temporary holds one block and
memory beyond the output stays O(BLOCK) at any trace length.

No complex transcendental is called.  With x = Re a_k and h = Im(a_k)/2,

    expm1(a_k) = expm1(x) - 2 e^x sin^2 h + 2i e^x sin h cos h,

built from the real ``exp`` and ``expm1`` and one ``sin`` and one ``cos``,
each far cheaper than numpy's complex ``exp`` and ``expm1``.  For x <= 0, as
for every passive cavity, the two real terms have the same sign, so nothing
cancels.

Blocks also keep the product in range: |D_k| = exp(Re(a_1 + ... + a_k)) to
the same k*u, which falls as exp(-kappa/2 * k dt) for a passive cavity.
With dt <= (2/kappa)/20 (the grid limit of
:func:`rydcav.transmission.transmission_response`) it falls within one block
to no less than exp(-0.05 * BLOCK), about 1e-89 for BLOCK = 4096 (above
exp(-:data:`EXP_SPAN`)), where a whole-trace product of 1e6 samples would
underflow to zero.  Coarser inputs get shorter blocks, so that within a
block exp(-EXP_SPAN) <= |D_k| <= exp(EXP_SPAN), inside the float range, and
so is every c_j / D_j.
"""

from __future__ import annotations

import numpy as np

BLOCK = 4096  # steps per scan block
EXP_SPAN = 600.0  # largest |log |D_k|| within one block (doubles overflow past e**709)


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
        x = zm.real * dt  # Re a
        h = zm.imag * (0.5 * dt)  # Im(a) / 2
        sin_h = np.sin(h)
        cos_h = np.cos(h, out=h)
        e = np.empty_like(zm)  # expm1(a)
        np.expm1(x, out=e.real)
        np.exp(x, out=x)
        x *= 2.0
        x *= sin_h  # 2 e^x sin h
        np.multiply(x, cos_h, out=e.imag)
        x *= sin_h
        e.real -= x
        c = np.divide(e, zm, out=zm)
        e += 1.0
        d = np.cumprod(e, out=e)  # D_k
        c /= d
        np.cumsum(c, out=c)
        c += b
        np.multiply(c, d, out=out[s0:s1])
        b = out[s1 - 1]
    return out
