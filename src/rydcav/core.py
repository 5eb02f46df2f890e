"""Static cavity-atom physics: mode profile, dispersive shift and
its power dependence, critical photon number and measurement backaction.
"""

from __future__ import annotations

import numpy as np

from .params import CavitySpec, EnsembleState, DispersiveValidityError


class SingularityError(ZeroDivisionError):
    pass


def mode_profile(z, cavity: CavitySpec, out=None):
    """Squared mode profile sin^2(p pi z / L) along the beam axis, in ``out``
    (which may be ``z``) when given: 1 / (1 + 1/tau^2), tau = tan(p pi z / L),
    from numpy's SIMD ``tan`` (its ``sin`` is a libm call per sample).  It is
    0 at both walls (1/tau^2 = inf) and 1 at the antinodes, where tau stays
    finite: no double lies within 2^-60.9 of a multiple of pi/2."""
    z = np.asarray(z, dtype=float)
    if z.size and not (np.min(z) >= 0 and np.max(z) <= cavity.length_z):  # NaN fails both
        raise ValueError("z outside cavity [0, length_z]")
    t = np.multiply(z, cavity.mode_antinodes * np.pi / cavity.length_z,
                    out=np.empty_like(z) if out is None else out)
    np.tan(t, out=t)
    t *= t
    with np.errstate(divide="ignore", over="ignore"):
        np.reciprocal(t, out=t)
    t += 1.0
    return np.reciprocal(t, out=t)


def cloud_mode_average(z, cavity: CavitySpec, sigma_z, sigma_x, out=None):
    """:func:`mode_profile` averaged over a Gaussian cloud centred at z, in ``out``
    as there: E[sin^2] = e sin^2 + (1 - e)/2, e = exp(-(a sigma)^2 / 2), along the
    beam (a = 2 p pi / L, sigma_z) times across it at the antinode x = W/2 (a = 2 pi / W,
    sigma_x).  One model: a point cloud is sigma = 0, :func:`mode_profile` bit for bit."""
    profile = mode_profile(z, cavity, out=out)
    if sigma_z == 0 and sigma_x == 0:
        return profile  # the map is the identity; skip its passes
    e_z = np.exp(-0.5 * (2.0 * cavity.mode_antinodes * np.pi / cavity.length_z * sigma_z) ** 2)
    e_x = np.exp(-0.5 * (2.0 * np.pi / cavity.width_x * sigma_x) ** 2)
    # this order keeps e = 1 exact; at an antinode the map gives e + (1 - e)/2 = (1 + e)/2
    profile *= e_z
    profile += 0.5 * (1.0 - e_z)
    profile *= e_x + 0.5 * (1.0 - e_x)
    return profile


def population_coefficients(ensemble: EnsembleState, g_peak, delta_plus, delta_minus):
    """Terms (a_s, a_p) of the two-transition dispersive shift per unit g^2,
    chi = g^2 (a_s w_s + a_p w_p), second order in g sqrt(N)/Delta (Blais et
    al., PRA 69, 062320 (2004), sec. III), with weights w (decay in transit):

        a_s = -N P_s (1/Delta_+1 + 1/Delta_-1),  a_p = N (P_p+1/Delta_+1 + P_p-1/Delta_-1)

    (m_l = 0 adds nothing).  Raises unless each |Delta| > 10 g_peak sqrt(N), g_peak the peak g.
    """
    dp = np.asarray(delta_plus, dtype=float)
    dm = np.asarray(delta_minus, dtype=float)
    if np.any(dp == 0) or np.any(dm == 0):
        raise SingularityError("zero detuning in population_coefficients")
    lim = 10.0 * g_peak * np.sqrt(max(ensemble.n_atoms, 1.0))
    for name, d in (("delta_plus", dp), ("delta_minus", dm)):
        if np.any(np.abs(d) <= lim):
            raise DispersiveValidityError(
                f"{name} reaches {np.min(np.abs(d)):.3g} rad/s, violating "
                f"|Delta| > 10 g sqrt(N) = {lim:.3g} rad/s; dispersive expansion invalid"
            )
    return (-ensemble.n_atoms * ensemble.p_s * (1.0 / dp + 1.0 / dm),
            ensemble.n_atoms * (ensemble.p_p_plus / dp + ensemble.p_p_minus / dm))


def power_reduction(n_c, n_crit):
    """Factor sqrt(1 + n_c/n_crit) by which the probe power divides chi."""
    n_c = np.asarray(n_c, dtype=float)
    if not np.all(n_c >= 0):
        raise ValueError("n_c must be >= 0")
    if not n_crit > 0:
        raise ValueError("n_crit must be positive")
    return np.sqrt(1.0 + n_c / n_crit)


def cavity_phase(chi, kappa, reduction=1.0):
    """Transmission phase of a resonant probe, -arctan(2 chi / (kappa r)), radians.

    ``reduction`` r is the :func:`power_reduction` of the low-power shift chi.
    """
    return -np.arctan(2.0 * chi / (kappa * reduction))


def shift_from_phase(phase, kappa, reduction=1.0):
    """Inverse of :func:`cavity_phase`: chi = -tan(phase) kappa r / 2."""
    return -np.tan(phase) * kappa * reduction / 2.0


def critical_photon_number(g, delta):
    """n_crit = Delta^2 / (4 g^2), threshold of the dispersive approximation."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("g must be finite")
    if np.any(g == 0):
        raise SingularityError("g = 0 in critical_photon_number")
    return np.asarray(delta, dtype=float) ** 2 / (4.0 * g ** 2)


def excited_fraction(n_c, n_crit):
    """Residual atomic excitation of the cavity-dressed eigenstate.

    P_e = sin^2(arctan(sqrt((n_c + 1)/n_crit))); strictly increasing in n_c.
    """
    n_c = np.asarray(n_c, dtype=float)
    if not np.all(n_c >= 0):
        raise ValueError("n_c must be >= 0")
    if not n_crit > 0:
        raise ValueError("n_crit must be positive")
    x = (n_c + 1.0) / n_crit
    # sin^2(arctan(sqrt(x))) = x / (1 + x)
    return x / (1.0 + x)
