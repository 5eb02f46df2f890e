import numpy as np

from rydcav.kernels import response_filter


def test_constant_z_transient_matches_closed_form():
    # For constant z the recursion b_k = d b_{k-1} + (d - 1)/z, d = exp(z dt),
    # has the solution b_k = -1/z + d**k (b0 + 1/z); start off the fixed point.
    kappa = 2 * np.pi * 236e3
    z = -kappa / 2 - 1j * 2 * np.pi * 10e3
    dt = 5e-8
    b0 = 3e-6 - 4e-6j
    n = 5000
    out = response_filter(np.full(n, z), dt, b0)
    d = np.exp(z * dt)
    k = np.arange(n)
    expected = -1.0 / z + d ** k * (b0 + 1.0 / z)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_constant_z_reaches_fixed_point():
    kappa = 2 * np.pi * 236e3
    z = np.full(4000, -kappa / 2 + 0j)
    out = response_filter(z, 5e-8, 0.0 + 0j)
    # -1/z is the fixed point of the recursion
    assert abs(out[-1] - (-1.0 / z[0])) < 1e-9 * abs(1.0 / z[0])


def test_seeded_at_fixed_point_stays_there():
    kappa = 2 * np.pi * 236e3
    z = np.full(1000, -kappa / 2 - 1j * 2 * np.pi * 10e3)
    out = response_filter(z, 5e-8, complex(-1.0 / z[0]))
    np.testing.assert_allclose(out, -1.0 / z[0], rtol=1e-12)
