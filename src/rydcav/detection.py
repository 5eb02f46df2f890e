"""Detection-chain models: heterodyne phase measurement with amplifier
noise, analytic precision formulas, and the destructive MCP channel.
"""

from __future__ import annotations

import numpy as np

from .params import McpModel, NoiseChain, ProbeConfig

BAND_TOLERANCE = 0.05  # relative widening of [beta_p, beta_s] before a ratio is flagged


class SnrValidityError(ValueError):
    """SNR too small for the Gaussian phase-noise limit."""


def snr(n_c, kappa_out, tau_i, n_noise):
    """Power SNR of the heterodyne detection, R = n_c kappa_out tau_i / n_noise, kappa_out
    in rad/s as kappa elsewhere.  The model gives one window a phase variance of 1/R, which
    holds when n_noise counts the added noise of the one quadrature that the phase reads; over
    both quadratures of a phase-preserving amplifier (Caves, PRD 26, 1817 (1982); Clerk et al.,
    RMP 82, 1155 (2010), sec. VI) it is 1/(2R), as in :func:`atom_number_precision`.  That
    factor is criterion 5b's sqrt(2); which one the packaged n_noise = 23 follows is open."""
    if not (kappa_out > 0 and tau_i > 0 and n_noise > 0):
        raise ValueError("kappa_out, tau_i and n_noise must be positive")
    return np.asarray(n_c, dtype=float) * kappa_out * tau_i / n_noise


def phase_precision(r):
    """Single-measurement phase precision 1/sqrt(R), radians.

    Valid only for R >> 1; R <= 10 is rejected.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r > 10.0):
        raise SnrValidityError("phase_precision requires R > 10")
    return 1.0 / np.sqrt(r)


def _window_sigmas(n_c, phase, kappa_out, probe: ProbeConfig, noise: NoiseChain):
    """Phase stds of the two windows of a phase-change measurement at the true
    phase ``phase`` (radians) and R = :func:`snr`, radians: the signal window's
    1/(cos(phase) sqrt(R)), as the pulled resonance transmits the amplitude
    cos(phase), and the empty-cavity reference window's 1/sqrt(alpha R), alpha
    times longer.  R <= 10 is rejected as in :func:`phase_precision`."""
    r = snr(n_c, kappa_out, probe.tau_i, noise.n_noise)
    phase_precision(r)  # the SNR validity rule
    return 1.0 / (np.cos(phase) * np.sqrt(r)), 1.0 / np.sqrt(probe.alpha * r)


def phase_change_sigma(n_c, phase, kappa_out, probe: ProbeConfig, noise: NoiseChain):
    """Single-shot phase-change precision at photon number n_c and true phase
    ``phase``, radians: the two window stds (the ones
    :func:`simulate_phase_shot_batch` draws) and the digitizer phase floor in
    quadrature, sqrt((1/cos^2(phase) + 1/alpha) / R + floor^2).
    """
    sigma_sig, sigma_ref = _window_sigmas(n_c, phase, kappa_out, probe, noise)
    return np.sqrt(sigma_sig ** 2 + sigma_ref ** 2 + noise.digitizer_phase_floor ** 2)


def atom_number_precision(kappa, g, n_noise, kappa_out, tau_i, alpha, n_c, n_crit):
    """Single-transition analytic atom-number precision, as published.

    sigma_N = (kappa/g) sqrt(beta (n_c + n_crit) / (2 R)),  beta = 1 + 1/alpha,
    with R = :func:`snr`.  Propagating sigma_dphi = sqrt(beta/R) (the
    :func:`phase_change_sigma` limit for 2 chi << kappa, with no floor) through
    N = chi / chi_1 gives the same expression without the factor 1/2
    under the root: the published 1/2 is the one difference, and it makes
    this value sqrt(2) smaller than the simulated scatter.
    """
    n_c = np.asarray(n_c, dtype=float)
    if np.any(n_c == 0):
        raise ZeroDivisionError("n_c = 0 in atom_number_precision")
    beta = 1.0 + 1.0 / alpha
    r = snr(n_c, kappa_out, tau_i, n_noise)
    return (kappa / g) * np.sqrt(beta * (n_c + n_crit) / (2.0 * r))


def simulate_phase_shot_batch(dphi_true_rad, probe: ProbeConfig, noise: NoiseChain, rng,
                              kappa_out: float):
    """Measured phase changes of single shots, in degrees, for campaigns.

    Draws the window-averaged phases directly from their Gaussian limits,
    the window stds of :func:`phase_change_sigma` at the true phase, plus the
    digitizer floor; R <= 10 raises :class:`SnrValidityError`.  Its oracle
    is the per-sample sampler ``per_sample_phase_shot`` of
    ``tests/test_detection.py``, which adds complex Gaussian noise to every
    sample of a trace and averages each window.
    """
    dphi_true_rad = np.asarray(dphi_true_rad, dtype=float)
    sigma_sig, sigma_ref = _window_sigmas(probe.n_c, dphi_true_rad, kappa_out, probe, noise)
    out = dphi_true_rad + sigma_sig * rng.standard_normal(dphi_true_rad.shape)
    out = out - sigma_ref * rng.standard_normal(dphi_true_rad.shape)
    if noise.digitizer_phase_floor > 0:
        out = out + noise.digitizer_phase_floor * rng.standard_normal(dphi_true_rad.shape)
    return np.degrees(out)


def _gain_sum(counts, sigma_a_rel, rng):
    """Sum of `counts` i.i.d. avalanche gains (gamma, mean 1, rel std sigma)."""
    counts = np.asarray(counts)
    if sigma_a_rel == 0:
        return counts.astype(float)
    shape = counts / sigma_a_rel ** 2
    out = np.zeros(np.shape(counts), dtype=float)
    pos = counts > 0
    if np.any(pos):
        out = np.where(
            pos, rng.gamma(np.where(pos, shape, 1.0)) * sigma_a_rel ** 2, 0.0
        )
    return out


def mcp_signal(n_s, n_p, model: McpModel, rng):
    """Stochastic MCP window signals (S1, S2) in V ns for one cloud.

    Each atom is detected with probability eta; each detected atom
    contributes an avalanche gain of mean 1/eta (gamma distributed with
    relative std sigma_a_rel), scaled by the single-atom signal, by
    alpha_p for p atoms, and split into window 2 by beta_s or beta_p.
    Expectations: S1 = s1_atom (N_s + alpha_p N_p),
    S2 = s1_atom (beta_s N_s + alpha_p beta_p N_p).
    """
    n_s = np.asarray(n_s)
    n_p = np.asarray(n_p)
    if not (np.all(n_s >= 0) and np.all(n_p >= 0)):
        raise ValueError("atom counts must be nonnegative")
    ks = rng.binomial(np.rint(n_s).astype(np.int64), model.eta)
    kp = rng.binomial(np.rint(n_p).astype(np.int64), model.eta)
    gs = _gain_sum(ks, model.sigma_a_rel, rng)
    gp = _gain_sum(kp, model.sigma_a_rel, rng)
    scale = model.s1_atom / model.eta
    s1 = scale * (gs + model.alpha_p * gp)
    s2 = scale * (model.beta_s * gs + model.alpha_p * model.beta_p * gp)
    return s1, s2


def p_fraction_from_ratio(s_r, model: McpModel):
    """Preparation-time p fraction from the window ratio S_r = S2/S1.

    Inverts the two-window model including the s/p decay imbalance over
    the microwave-to-detection delay.  Values outside the physical band
    [beta_p, beta_s] (widened by :data:`BAND_TOLERANCE` relative) are
    clipped and flagged instead of rejected, since single-shot noise can
    push S_r out of band; a NaN ratio (no atom detected) gives a NaN
    fraction.  Returns (p_fraction, clipped_flag).
    """
    s_r = np.asarray(s_r, dtype=float)
    lo = model.beta_p * (1.0 - BAND_TOLERANCE)
    hi = model.beta_s * (1.0 + BAND_TOLERANCE)
    clipped = (s_r < lo) | (s_r > hi)
    s = np.clip(s_r, model.beta_p, model.beta_s)
    d = model.decay_correction
    with np.errstate(divide="ignore"):
        ratio = (model.beta_p - s) / (s - model.beta_s)
    p = np.where(
        s >= model.beta_s,
        0.0,
        np.where(s <= model.beta_p, 1.0, 1.0 / (1.0 + model.alpha_p * ratio * d)),
    )
    return p, clipped


def mcp_relative_precision(n_atoms, eta, sigma_a_rel):
    """Relative atom-number precision of the ionization channel.

    sqrt((sigma_a_rel^2/eta + 1/eta - 1) / N); exact for the binomial
    thinning + gamma gain model of :func:`mcp_signal`.
    """
    n_atoms = np.asarray(n_atoms, dtype=float)
    return np.sqrt((sigma_a_rel ** 2 / eta + 1.0 / eta - 1.0) / n_atoms)
