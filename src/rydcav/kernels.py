"""The response-integral kernel: a blocked linear scan.

The response integral obeys the first-order linear recurrence

    b_k = d_k b_{k-1} + c_k,   d_k = 1 + e_k,   c_k = e_k / zm_k,   e_k = expm1(a_k),

with ``zm_k`` the midpoint of z over step k and ``a_k = zm_k dt``.  Over a
block of steps it has the closed form (a scan; Blelloch 1990,
CMU-CS-90-190; Martin & Cundy 2018, arXiv:1709.04057)

    b_k = D_k (b_0 + sum_{j<=k} e_j / (zm_j D_j)),   D_k = d_1 d_2 ... d_k,

which numpy evaluates with one ``cumprod`` for the running product D_k, one
complex division per step and one ``cumsum`` for the sum, in the output
itself: the caller's ``out`` array when one is given, which may be z (the
scan then runs in place: before a block is overwritten, its last z sample is
kept for the next block's first midpoint).  A running product of
k factors has a relative error bound of order k*u (Higham 2002, sec. 3.1),
under 1e-12 for k <= :data:`BLOCK`.  The trace is walked one block of
:data:`BLOCK` steps at a time, the last value of a block seeding the next,
so memory beyond the output stays O(BLOCK) at any trace length.

No complex transcendental is called.  With x = Re a_k, h = Im(a_k)/2,
t = tan h and r = 2 e^x / (1 + t^2) (the tangent half-angle substitution),

    expm1(a_k) = expm1(x) - r t^2 + i r t,

built from the real ``exp`` and ``expm1`` and one ``tan``: numpy runs
``tan`` as a SIMD loop, its ``sin``, ``cos`` and complex ``exp`` and
``expm1`` through scalar libm calls.  For x <= 0 (a passive cavity) the two
real terms share a sign, so nothing cancels.  No double lies closer than
about 2^-60.9 to a multiple of pi/2 (Muller, Elementary Functions), so |t|
stays below about 1e19 and t^2 never overflows.  The closed-form tail of
:func:`rydcav.transmission.transmission_response` uses the same helper.

Blocks also keep the product in range: |D_k| = exp(Re(a_1 + ... + a_k)) to
the same k*u, falling as exp(-kappa/2 * k dt) for a passive cavity.  At the
grid limit dt <= (2/kappa)/20 of :func:`rydcav.transmission.transmission_response`
one block ends above exp(-0.05 * BLOCK), about 1e-89, where a whole-trace
product of 1e6 samples would underflow.  Coarser inputs get shorter blocks,
so that exp(-EXP_SPAN) <= |D_k| <= exp(EXP_SPAN) within a block.  Each
divisor zm_j D_j is then within a factor exp(EXP_SPAN), about 4e260, of zm_j:
a normal double for 1e-47 < |zm_j| < 1e47 (a passive cavity has |zm_j| >=
kappa/2), and so is every quotient e_j / (zm_j D_j).
"""

from __future__ import annotations

import numpy as np

BLOCK = 4096  # steps per scan block
EXP_SPAN = 600.0  # largest |log |D_k|| within one block (doubles overflow past e**709)


def _all_finite(a):
    """Whether every sample of ``a`` is finite, with no temporary of a's size
    unless it overflows: a sum of finite samples is finite unless it overflows,
    and only then is each sample looked at."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    return bool(np.isfinite(total) or np.all(np.isfinite(a)))


def _expm1_tan(x, h, out):
    """expm1(x + 2ih) into the complex array ``out``, from one ``tan``.

    expm1(x + 2ih) = expm1(x) - r t^2 + i r t with t = tan h and
    r = 2 e^x / (1 + t^2).  ``x`` and ``h`` are real arrays of out's
    shape, both overwritten; ``h`` may be ``out.imag``.
    """
    t = np.tan(h, out=h)
    np.expm1(x, out=out.real)
    r = np.exp(x, out=x)
    r *= 2.0
    q = np.multiply(t, t)
    q += 1.0
    r /= q
    np.multiply(r, t, out=q)
    q *= t  # r t^2
    out.real -= q
    np.multiply(r, t, out=out.imag)
    return out


def response_filter(z, dt, b0, out=None):
    """Recursive update of the input-output response integral.

    ``z[n] = i*delta_m - kappa/2 - i*chi[n]`` per sample; ``b0`` is the
    initial value of the integral.  Each step treats z as constant at its
    midpoint value, so the per-step propagator is exact for piecewise
    constant z and second-order accurate for smooth chi(t).  The integral
    is returned in ``out`` if given, which must be a writeable complex128
    1-d array of z's length (possibly strided) that is z itself or shares no
    memory with it.

    Raises ValueError, naming the argument, unless z is a 1-d array of at
    least one finite sample, dt is finite and positive, b0 is finite and
    out is None or as stated.
    """
    z = np.ascontiguousarray(z, dtype=np.complex128)
    if z.ndim != 1 or z.size == 0:
        raise ValueError(f"z must be 1-d with at least one sample, got shape {z.shape}")
    dt = float(dt)
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    b = complex(b0)
    if not np.isfinite(b):
        raise ValueError(f"b0 must be finite, got {b}")
    if not _all_finite(z):
        raise ValueError("z must be finite")
    growth = dt * max(z.real.max(), -z.real.min())  # largest |Re(a_k)|
    block = max(1, int(EXP_SPAN / growth)) if growth * BLOCK > EXP_SPAN else BLOCK
    n = z.shape[0]
    out = np.empty(n, dtype=np.complex128) if out is None else out
    if not (isinstance(out, np.ndarray) and out.dtype == np.complex128 and out.shape == (n,)
            and out.flags.writeable and (out is z or not np.shares_memory(out, z))):
        raise ValueError(f"out must be a writeable complex128 1-d array of {n} samples, "
                         "z itself or not in z")
    z_prev = z[0]  # the z sample before each block, kept before out overwrites it
    out[0] = b
    for s0 in range(1, n, block):
        s1 = min(s0 + block, n)
        zm = z[s0:s1] + z[s0 - 1:s1 - 1]
        zm[0] = z[s0] + z_prev  # z[s0 - 1] already holds the integral when out is z
        z_prev = z[s1 - 1]
        zm *= 0.5
        e = _expm1_tan(zm.real * dt, zm.imag * (0.5 * dt), np.empty_like(zm))  # expm1(a)
        d = np.add(e, 1.0, out=out[s0:s1])
        np.cumprod(d, out=d)  # D_k
        zm *= d
        c = np.divide(e, zm, out=e)  # e_k / (zm_k D_k)
        np.cumsum(c, out=c)
        c += b
        d *= c
        b = out[s1 - 1]
    return out
