"""Fit tasks built on the least-squares engine: trace fit for the atom
number, entry-time fit, power-dependence fit, MCP Rabi calibration and
the spectroscopy population fit.

The trace fits evaluate the fly-through model on the data's own times,
so their data share one uniform grid with dt <= (2/kappa)/20 that starts
no later than the entry: the model starts from the empty cavity there.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import core, transmission
from .fitting import FitResult, least_squares_fit, RankDeficiencyError
from .params import CavitySpec, EnsembleState, McpModel, TransitionSet
from .transmission import phase_change, simulate_flythrough

DT_I = 0.3e-6  # s, length of the intracavity spectroscopy pulse


class UnidentifiableError(ValueError):
    """The data cannot constrain the requested parameters."""


def rabi_transfer(r):
    """Preparation transfer sin^2(pi r / 2) of a pulse with Rabi ratio
    r = Omega/Omega_pi."""
    return np.sin(np.pi * r / 2.0) ** 2


def spectroscopy_transfer(omega_i, delta_i, dt_i):
    """Two-level transfer probability of a square pulse.

    [O^2/(O^2 + D^2)] sin^2(dt/2 sqrt(O^2 + D^2)); bounded by the Rabi
    envelope O^2/(O^2 + D^2).
    """
    if not dt_i > 0:
        raise ValueError("dt_i must be positive")
    omega = np.asarray(omega_i, dtype=float)
    delta = np.asarray(delta_i, dtype=float)
    w2 = omega ** 2 + delta ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            w2 > 0,
            omega ** 2 / np.where(w2 > 0, w2, 1.0) * np.sin(0.5 * dt_i * np.sqrt(w2)) ** 2,
            0.0,
        )


# ---------------------------------------------------------------------------
# trace fits


def fit_entry_time(
    times,
    dphi_deg,
    ensemble: EnsembleState,
    cavity: CavitySpec,
    transitions: TransitionSet,
    delta_m: float,
    kappa: float,
    sigma_deg=None,
    transit_decay: bool = True,
    extended_cloud=None,
) -> FitResult:
    """Preliminary single-parameter fit of the time origin of the transit.

    All other parameters are held at their configured values; a flat trace raises
    :class:`UnidentifiableError`.  ``times`` is the one uniform grid the model is
    evaluated on, dt <= (2/kappa)/20, and the entry time stays >= ``times[0]``.
    ``extended_cloud`` is ignored (one model: a point cloud is sigma = 0); kept for perfbench.
    """
    times = np.asarray(times, dtype=float)
    if np.shape(dphi_deg) != times.shape:
        raise ValueError(f"dphi_deg: {np.size(dphi_deg)} samples, times has {times.size}")
    if np.size(sigma_deg) not in (1, times.size):
        raise ValueError(f"sigma_deg: {np.size(sigma_deg)} values, times has {times.size}")
    if times[0] > ensemble.entry_time:
        raise ValueError(f"times start at {times[0]:.6g} s, after the entry time")
    ref = np.angle(transmission.steady_transmission(0.0, delta_m, kappa))

    def model(params):
        shift = transmission.fly_through_shift_trace(replace(ensemble, **params), cavity,
                                                     transitions, times,
                                                     transit_decay=transit_decay)
        return phase_change(transmission.transmission_response(shift, delta_m, kappa), ref)

    try:
        return least_squares_fit(model, dphi_deg, {"entry_time": ensemble.entry_time},
                                 sigma=sigma_deg, bounds={"entry_time": (times[0], np.inf)})
    except RankDeficiencyError as exc:
        raise UnidentifiableError("flat trace: entry time unidentifiable") from exc


def fit_atom_number(
    traces,
    ensemble: EnsembleState,
    cavity: CavitySpec,
    transitions: TransitionSet,
    kappa: float,
    transit_decay: bool = True,
    extended_cloud=None,
) -> FitResult:
    """Joint amplitude+phase fit of the fly-through model with N free,
    started from ``ensemble.n_atoms``.

    ``traces`` is a list of dicts with keys delta_m, times, amplitude,
    phase (radians, referenced model output: unwrapped transmission
    phase), and optional sigma_amp / sigma_phase.  Their times are the one uniform
    grid the model is evaluated on: dt <= (2/kappa)/20, starting no later than the entry.
    ``extended_cloud`` is ignored (one model: a point cloud is sigma = 0); kept for perfbench.
    """
    if not traces:
        raise ValueError("traces: no trace given")
    times = np.asarray(traces[0]["times"], dtype=float)
    for i, tr in enumerate(traces):
        if not np.array_equal(tr["times"], times):
            raise ValueError(f"traces[{i}]: times differ from those of traces[0]")
        for key in ("amplitude", "phase"):
            if np.shape(tr[key]) != times.shape:
                raise ValueError(f"traces[{i}].{key}: {np.size(tr[key])} samples, "
                                 f"times has {times.size}")
        for key in ("sigma_amp", "sigma_phase"):
            if np.size(tr.get(key, 1.0)) not in (1, times.size):
                raise ValueError(f"traces[{i}].{key}: {np.size(tr[key])} values, "
                                 f"times has {times.size}")
    if times[0] > ensemble.entry_time:
        raise ValueError(f"times start at {times[0]:.6g} s, after the entry time")
    y = np.concatenate([tr[key] for tr in traces for key in ("amplitude", "phase")], dtype=float)
    sig = np.concatenate([np.full(times.size, tr.get(key, 1.0))
                          for tr in traces for key in ("sigma_amp", "sigma_phase")])

    def model(params):
        # chi(t) does not depend on the probe: one build serves every probe
        shift = transmission.fly_through_shift_trace(replace(ensemble, **params), cavity,
                                                     transitions, times,
                                                     transit_decay=transit_decay)
        out = [transmission.transmission_response(shift, tr["delta_m"], kappa) for tr in traces]
        return np.concatenate([part for r in out for part in (r.amplitude, r.unwrapped_phase)])

    init = {"n_atoms": float(ensemble.n_atoms)}
    try:
        return least_squares_fit(model, y, init, sigma=sig, bounds={"n_atoms": (0.0, np.inf)})
    except RankDeficiencyError as exc:
        raise UnidentifiableError("traces carry no atom-number information") from exc


# ---------------------------------------------------------------------------
# power dependence


def init_n_crit_from_half_signal(n_c, dphi_deg):
    """Initial n_crit from the photon number where the signal halves.

    |dphi| drops to half its low-power value at n_c = 3 n_crit.
    """
    n_c = np.asarray(n_c, dtype=float)
    mag = np.abs(np.asarray(dphi_deg, dtype=float))
    if mag.shape != n_c.shape:
        raise ValueError(f"dphi_deg: {mag.size} samples, n_c has {n_c.size}")
    order = np.argsort(n_c)
    n_c, mag = n_c[order], mag[order]
    half = 0.5 * mag[0]
    above = mag >= half
    if np.all(above):
        return float(n_c[-1])  # no decay visible; caller beware
    i = int(np.argmax(~above))
    slope = (n_c[i - 1] - n_c[i]) / (mag[i - 1] - mag[i])  # mag[i] < half <= mag[i - 1]
    n_half = slope * (half - mag[i]) + n_c[i]
    return float(n_half / 3.0)


def fit_power_dependence(datasets, kappa: float) -> FitResult:
    """Global fit of dphi(n_c) = -arctan[2 chi0_j / (kappa sqrt(1+n_c/n_crit))].

    One shared n_crit, one chi0 per dataset.  ``datasets`` is a list of
    dicts with keys n_c, dphi_deg and optional sigma_deg.
    """
    if not datasets:
        raise ValueError("datasets: no dataset given")
    for j, ds in enumerate(datasets):
        for key in ("n_c", "dphi_deg"):
            if key not in ds:
                raise ValueError(f"datasets[{j}].{key}: missing")
        n_c = np.asarray(ds["n_c"], dtype=float)
        dphi = np.asarray(ds["dphi_deg"], dtype=float)
        if n_c.ndim != 1:
            raise ValueError(f"datasets[{j}].n_c: {n_c.ndim}-d, must be 1-d")
        if not np.all(np.isfinite(n_c) & (n_c >= 0)):
            raise ValueError(f"datasets[{j}].n_c: must be finite and >= 0")
        if dphi.shape != n_c.shape:
            raise ValueError(f"datasets[{j}].dphi_deg: {dphi.size} samples, "
                             f"n_c has {n_c.size}")
        if not np.all(np.isfinite(dphi)):
            raise ValueError(f"datasets[{j}].dphi_deg: must be finite")
        # np.ptp, not np.unique: numpy's unique imports numpy.ma (8 ms, 0.6 MB)
        if n_c.size < 2 or np.ptp(n_c) == 0:
            raise UnidentifiableError("single-power dataset cannot constrain n_crit")
        if np.size(ds.get("sigma_deg", 1.0)) not in (1, n_c.size):
            raise ValueError(f"datasets[{j}].sigma_deg: {np.size(ds['sigma_deg'])} values, "
                             f"n_c has {n_c.size}")

    y = np.concatenate([np.asarray(ds["dphi_deg"], dtype=float) for ds in datasets])
    sig = np.concatenate([
        np.full(len(ds["n_c"]), ds.get("sigma_deg", 1.0)) for ds in datasets
    ])

    def model(params):
        out = []
        for j, ds in enumerate(datasets):
            chi = core.power_dependent_shift(params[f"chi0_{j}"], ds["n_c"], params["n_crit"])
            out.append(np.degrees(core.cavity_phase(chi, kappa)))
        return np.concatenate(out)

    ref = max(datasets, key=lambda ds: np.max(np.abs(ds["dphi_deg"])))
    init = {"n_crit": init_n_crit_from_half_signal(ref["n_c"], ref["dphi_deg"])}
    bounds = {"n_crit": (1.0, np.inf)}
    for j, ds in enumerate(datasets):
        i0 = int(np.argmin(ds["n_c"]))
        init[f"chi0_{j}"] = core.shift_from_phase(np.radians(ds["dphi_deg"][i0]), kappa)
    return least_squares_fit(model, y, init, sigma=sig, bounds=bounds)


# ---------------------------------------------------------------------------
# MCP Rabi calibration


def rabi_calibration_model(theta, amp, alpha_p, beta_s, beta_p, decay_correction):
    """Supp-window model of the normalized MCP signals vs pulse area.

    Returns (S1_norm, S2_norm, S_r); the decay imbalance multiplies the
    p-state weight.
    """
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0) ** 2
    s = np.sin(theta / 2.0) ** 2
    pw = alpha_p * decay_correction * s
    s1 = amp * (c + pw)
    s2 = amp * (beta_s * c + beta_p * pw) / beta_s
    sr = (beta_s * c + beta_p * pw) / (c + pw)
    return s1, s2, sr


def fit_rabi_calibration(theta, s1, s2, sr, mcp: McpModel, sigma=None) -> FitResult:
    """Joint fit of S1, S2 and S_r versus pulse area for the window
    coefficients (alpha_p, beta_s, beta_p) plus a shared amplitude and an
    area-scale calibration; ``sigma``, scalar or per theta, serves all three signals.
    """
    theta = np.asarray(theta, dtype=float)
    for name, data in (("s1", s1), ("s2", s2), ("sr", sr)):
        if np.shape(data) != theta.shape:
            raise ValueError(f"{name}: {np.size(data)} samples, theta has {theta.size}")
    if np.size(sigma) not in (1, theta.size):
        raise ValueError(f"sigma: {np.size(sigma)} values, theta has {theta.size}")
    if theta.size == 0 or np.ptp(theta) < 2.0 * np.pi:
        raise UnidentifiableError("theta: must span at least one Rabi period")
    d = mcp.decay_correction
    y = np.concatenate([s1, s2, sr])
    sig = sigma if np.size(sigma) == 1 else np.tile(sigma, 3)

    def model(params):
        a, b, c = rabi_calibration_model(
            params["area_scale"] * theta,
            params["amp"], params["alpha_p"], params["beta_s"], params["beta_p"], d,
        )
        return np.concatenate([a, b, c])

    init = {
        "amp": float(np.asarray(s1)[0]),
        "area_scale": 1.0,
        "alpha_p": 0.9,
        "beta_s": float(np.clip(np.asarray(sr)[0], 0.05, 0.95)),
        "beta_p": float(np.clip(np.min(sr), 0.05, 0.95)),
    }
    bounds = {
        "alpha_p": (1e-3, 1.0),
        "beta_s": (1e-3, 1.0),
        "beta_p": (1e-3, 1.0),
        "area_scale": (0.5, 2.0),
        "amp": (0.0, np.inf),
    }
    return least_squares_fit(model, y, init, sigma=sig, bounds=bounds)


# ---------------------------------------------------------------------------
# spectroscopy


def spectroscopy_spectrum(
    freqs,
    prep_ratio,
    p_plus,
    p_minus,
    omega_i_plus,
    omega_i_minus,
    f_plus,
    f_minus,
):
    """P_p after the spectroscopy pulse vs its frequency, for a given
    preparation Rabi ratio Omega/Omega_pi.

    Combines the preparation transfer sin^2(pi r / 2), the sublevel
    fractions inside the cavity, and the per-line spectroscopy transfer
    of a :data:`DT_I` pulse.
    """
    freqs = np.asarray(freqs, dtype=float)
    p_frac = rabi_transfer(prep_ratio)
    s = 1.0 - p_frac
    pp = p_frac * p_plus
    pm = p_frac * p_minus
    p0 = p_frac * (1.0 - p_plus - p_minus)
    t_plus = spectroscopy_transfer(omega_i_plus, 2.0 * np.pi * (freqs - f_plus), DT_I)
    t_minus = spectroscopy_transfer(omega_i_minus, 2.0 * np.pi * (freqs - f_minus), DT_I)
    return p0 + pp * (1.0 - t_plus) + pm * (1.0 - t_minus) + s * (t_plus + t_minus)


def find_line_centers(freqs, spectrum, n_lines=2):
    """Largest local maxima with parabolic refinement; initializer for the
    spectroscopy fit."""
    freqs = np.asarray(freqs, dtype=float)
    y = np.asarray(spectrum, dtype=float)
    interior = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])) + 1
    if interior.size < n_lines:
        raise UnidentifiableError("not enough spectral peaks found")
    best = interior[np.argsort(y[interior])[::-1][:n_lines]]
    centers = []
    for i in sorted(best):
        y0, y1, y2 = y[i - 1], y[i], y[i + 1]
        denom = y0 - 2 * y1 + y2
        off = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
        centers.append(freqs[i] + off * (freqs[1] - freqs[0]))
    return centers


def fit_spectroscopy(freqs, spectra, prep_ratios, sigma=None) -> FitResult:
    """Joint fit of a ladder of spectra for the sublevel populations.

    ``spectra`` is a list of P_p arrays over ``freqs``, one per
    preparation amplitude in ``prep_ratios`` (Omega/Omega_pi, must include
    a 0 baseline).  The two intracavity Rabi frequencies are independent
    parameters.  One fit from the line centres of the baseline spectrum.
    """
    prep_ratios = list(prep_ratios)
    if 0.0 not in prep_ratios:
        raise UnidentifiableError("a zero-preparation baseline spectrum is required")
    if len(prep_ratios) < 2:
        raise UnidentifiableError("need at least two preparation amplitudes")
    if len(spectra) != len(prep_ratios):
        raise ValueError(f"spectra: {len(spectra)} given, prep_ratios has {len(prep_ratios)}")
    freqs = np.asarray(freqs, dtype=float)
    for j, sp in enumerate(spectra):
        if np.shape(sp) != freqs.shape:
            raise ValueError(f"spectra[{j}]: {np.size(sp)} samples, freqs has {freqs.size}")
    y = np.concatenate([np.asarray(sp, dtype=float) for sp in spectra])

    base = spectra[prep_ratios.index(0.0)]
    f_minus0, f_plus0 = sorted(find_line_centers(freqs, base, 2))

    def model(params):
        out = [
            spectroscopy_spectrum(
                freqs, r,
                params["p_plus"], params["p_minus"],
                params["omega_i_plus"], params["omega_i_minus"],
                params["f_plus"], params["f_minus"],
            )
            for r in prep_ratios
        ]
        return np.concatenate(out)

    span = freqs[-1] - freqs[0]
    init = {
        "p_plus": 0.5,
        "p_minus": 0.25,
        "omega_i_plus": 0.8 * np.pi / DT_I,
        "omega_i_minus": 0.8 * np.pi / DT_I,
        "f_plus": f_plus0,
        "f_minus": f_minus0,
    }
    bounds = {
        "p_plus": (0.0, 1.0),
        "p_minus": (0.0, 1.0),
        "omega_i_plus": (1e-3 * np.pi / DT_I, 4.0 * np.pi / DT_I),
        "omega_i_minus": (1e-3 * np.pi / DT_I, 4.0 * np.pi / DT_I),
        "f_plus": (f_plus0 - 0.2 * span, f_plus0 + 0.2 * span),
        "f_minus": (f_minus0 - 0.2 * span, f_minus0 + 0.2 * span),
    }
    return least_squares_fit(model, y, init, sigma=sigma, bounds=bounds)


# ---------------------------------------------------------------------------
# superposition-state prediction


def predict_superposition_phase(
    prep_rabi_ratio,
    ensemble: EnsembleState,
    cavity: CavitySpec,
    transitions: TransitionSet,
    kappa: float,
    p_plus: float = 1.0,
    p_minus: float = 0.0,
    transit_decay: bool = True,
):
    """Resonant-probe phase change for an ensemble prepared with Rabi ratio
    Omega/Omega_pi: :func:`rydcav.transmission.readout_phase`, the mean over
    the :data:`~rydcav.transmission.READOUT_WINDOW` (1 us) centred on
    t_max = t_cen + 2/kappa.

    The transferred p population is distributed over the sublevels with
    fractions (p_plus, p_minus, remainder to m_l = 0): a pure p,+1 map is
    (1, 0).  Sinusoidal in the Rabi ratio.
    """
    p_prep = rabi_transfer(prep_rabi_ratio)
    ens = replace(
        ensemble,
        p_s=1.0 - p_prep,
        p_p_plus=p_prep * p_plus,
        p_p_minus=p_prep * p_minus,
    )
    trace, dphi = simulate_flythrough(ens, cavity, transitions, 0.0, kappa,
                                      transit_decay=transit_decay)
    return transmission.readout_phase(trace.times, dphi, ens, cavity, kappa)
