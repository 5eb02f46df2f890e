"""Static cavity-atom physics: coupling profile, dispersive shift and
its power dependence, critical photon number and measurement backaction.
"""

from __future__ import annotations

import numpy as np

from .params import CavitySpec, EnsembleState, DispersiveValidityError


class SingularityError(ZeroDivisionError):
    pass


def mode_amplitude(z, cavity: CavitySpec):
    """Normalized field amplitude |sin(p pi z / L)| along the beam axis.

    Vanishes at both walls, reaches 1 at the antinodes.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0) or np.any(z > cavity.length_z):
        raise ValueError("z outside cavity [0, length_z]")
    out = np.abs(np.sin(cavity.mode_antinodes * np.pi * z / cavity.length_z))
    return out if out.ndim else float(out)


def coupling(z, cavity: CavitySpec):
    """Single-atom coupling g(z) = g_max * |mode| * sqrt(mode_correction), rad/s."""
    g = cavity.g_max * mode_amplitude(z, cavity) * np.sqrt(cavity.mode_correction)
    return g


def dispersive_shift(ensemble: EnsembleState, g, delta_plus, delta_minus,
                     decay_s=1.0, decay_p=1.0):
    """Two-transition dispersive shift of the cavity frequency, rad/s.

    chi = g^2 N [(P_p+1 w_p - P_s w_s)/Delta_+1 + (P_p-1 w_p - P_s w_s)/Delta_-1]

    The m_l = 0 sublevel is uncoupled and contributes nothing.  The
    weights w_s = ``decay_s`` and w_p = ``decay_p`` scale the s and p
    populations (radiative decay during a transit).  Detunings with
    |Delta| <= 10 max(g) sqrt(N) are rejected: the formula is a
    second-order expansion in g sqrt(N)/Delta.
    """
    g = np.asarray(g, dtype=float)
    dp = np.asarray(delta_plus, dtype=float)
    dm = np.asarray(delta_minus, dtype=float)
    if np.any(dp == 0) or np.any(dm == 0):
        raise SingularityError("zero detuning in dispersive_shift")
    lim = 10.0 * np.max(g) * np.sqrt(max(ensemble.n_atoms, 1.0))
    for name, d in (("delta_plus", dp), ("delta_minus", dm)):
        if np.any(np.abs(d) <= lim):
            raise DispersiveValidityError(
                f"{name} reaches {np.min(np.abs(d)):.3g} rad/s, violating "
                f"|Delta| > 10 g sqrt(N) = {lim:.3g} rad/s; dispersive expansion invalid"
            )
    chi = g ** 2 * ensemble.n_atoms * (
        (ensemble.p_p_plus * decay_p - ensemble.p_s * decay_s) / dp
        + (ensemble.p_p_minus * decay_p - ensemble.p_s * decay_s) / dm
    )
    return chi if np.ndim(chi) else float(chi)


def power_reduction(n_c, n_crit):
    """Factor sqrt(1 + n_c/n_crit) by which the probe power divides chi."""
    n_c = np.asarray(n_c, dtype=float)
    if np.any(n_c < 0):
        raise ValueError("n_c must be >= 0")
    if n_crit <= 0:
        raise ValueError("n_crit must be positive")
    return np.sqrt(1.0 + n_c / n_crit)


def power_dependent_shift(chi0, n_c, n_crit):
    """Dispersive shift reduced by the probe power: chi0 / sqrt(1 + n_c/n_crit)."""
    return chi0 / power_reduction(n_c, n_crit)


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
    if np.any(np.asarray(g) == 0):
        raise SingularityError("g = 0 in critical_photon_number")
    return np.asarray(delta, dtype=float) ** 2 / (4.0 * np.asarray(g, dtype=float) ** 2)


def excited_fraction(n_c, n_crit):
    """Residual atomic excitation of the cavity-dressed eigenstate.

    P_e = sin^2(arctan(sqrt((n_c + 1)/n_crit))); strictly increasing in n_c.
    """
    if n_crit <= 0:
        raise ValueError("n_crit must be positive")
    x = (np.asarray(n_c, dtype=float) + 1.0) / n_crit
    # sin^2(arctan(sqrt(x))) = x / (1 + x)
    return x / (1.0 + x)
