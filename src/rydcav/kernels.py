"""The response-integral kernel: one per-sample numpy loop."""

from __future__ import annotations

import numpy as np


def response_filter(z, dt, b0):
    """Recursive update of the input-output response integral.

    ``z[n] = i*delta_m - kappa/2 - i*chi[n]`` per sample; ``b0`` is the
    initial value of the integral.  Each step treats z as constant at its
    midpoint value, so the per-step propagator is exact for piecewise
    constant z and second-order accurate for smooth chi(t).
    """
    z = np.ascontiguousarray(z, dtype=np.complex128)
    dt = float(dt)
    n = z.shape[0]
    out = np.empty(n, dtype=np.complex128)
    b = complex(b0)
    out[0] = b
    for k in range(1, n):
        zm = 0.5 * (z[k] + z[k - 1])
        d = np.exp(zm * dt)
        b = b * d + (d - 1.0) / zm
        out[k] = b
    return out
