"""Scenario runner: figure-style datasets, single-shot Monte Carlo
campaigns, and the systematic-error (trueness) budget.

Shots are organized in fixed-size blocks; block ``b`` of a campaign draws
from a counter-based Philox stream keyed by (master_seed, b), so results
are bit-identical regardless of execution order or thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import core, detection, estimation
from .params import (
    CavitySpec,
    EnsembleState,
    McpModel,
    NoiseChain,
    ProbeConfig,
    TransitionSet,
)
from .transmission import simulate_flythrough, steady_transmission

BLOCK_SIZE = 4096


def block_rng(master_seed: int, block_index: int) -> np.random.Generator:
    """Counter-based per-block RNG stream."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class Scenario:
    """Full parameter bundle for one named run."""

    name: str
    cavity: CavitySpec
    ensemble: EnsembleState
    transitions: TransitionSet
    probe: ProbeConfig
    noise: NoiseChain
    mcp: McpModel
    shots: int = 1
    sweep_name: str | None = None
    sweep_values: list = field(default_factory=list)
    master_seed: int = 0
    flags: dict = field(default_factory=dict)
    type: str | None = None

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.sweep_values and not np.all(np.isfinite(self.sweep_values)):
            raise ValueError("sweep values must be finite")

    @property
    def kappa(self) -> float:
        return self.cavity.kappa

    def flag(self, name, default=None):
        return self.flags.get(name, default)


@dataclass
class TruenessReport:
    """Itemized relative systematic error budget (signed fractions)."""

    items: dict  # name -> (value, uncertainty)

    @property
    def total(self) -> float:
        return float(sum(v for v, _ in self.items.values()))

    @property
    def total_uncertainty(self) -> float:
        return float(np.sqrt(sum(u ** 2 for _, u in self.items.values())))

    def to_dict(self):
        return {
            "items": {k: {"value": v, "uncertainty": u} for k, (v, u) in self.items.items()},
            "total": self.total,
            "total_uncertainty": self.total_uncertainty,
        }

    def table(self) -> str:
        lines = [f"{'item':24s} {'value [%]':>10s} {'unc [pp]':>10s}"]
        for k, (v, u) in self.items.items():
            lines.append(f"{k:24s} {100*v:>+10.2f} {100*u:>10.2f}")
        lines.append(f"{'total':24s} {100*self.total:>+10.2f} {100*self.total_uncertainty:>10.2f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# systematic-error items


def fourth_order_error(g, n_atoms, delta_plus, delta_minus):
    """Relative error of the second-order dispersive approximation.

    g^2 N (D+^2 + D-^2) / (D+^2 D-^2); the next (fourth) expansion order.
    """
    return (
        g ** 2
        * n_atoms
        * (delta_plus ** 2 + delta_minus ** 2)
        / (delta_plus ** 2 * delta_minus ** 2)
    )


def pointlike_correction(sigma_z, sigma_x, cavity: CavitySpec, n_quad=2001):
    """Relative deviation of the Gaussian-weighted <g^2> from g^2 at the
    cloud center (nearest antinode), by numerical quadrature over the
    mode shape.  Negative: a spread-out cloud couples more weakly.
    """
    if sigma_z < 0 or sigma_x < 0:
        raise ValueError("cloud sizes must be >= 0")
    p = cavity.mode_antinodes
    length = cavity.length_z
    # antinode closest to the cavity center
    k = int(np.round(p / 2.0 - 0.5))
    z0 = (2 * k + 1) * length / (2.0 * p)

    def gaussian_avg(profile_sq, x0, sigma):
        if sigma == 0:
            return profile_sq(x0)
        x = np.linspace(-6 * sigma, 6 * sigma, n_quad)
        w = np.exp(-0.5 * (x / sigma) ** 2)
        return np.trapezoid(w * profile_sq(x0 + x), x) / np.trapezoid(w, x)

    axial = gaussian_avg(lambda z: np.sin(p * np.pi * z / length) ** 2, z0, sigma_z)
    wx = cavity.width_x
    transverse = gaussian_avg(lambda x: np.sin(np.pi * x / wx) ** 2, wx / 2.0, sigma_x)
    return float(axial * transverse - 1.0)


def interaction_shift(spacing, coefficient_mhz_um, order):
    """Pairwise interaction shift C_k / R^k in Hz.

    ``spacing`` in meters, ``coefficient_mhz_um`` in MHz * um^order
    (order 6: Van der Waals, order 3: resonant dipole-dipole exchange).
    """
    if order not in (3, 6):
        raise ValueError("order must be 3 or 6")
    r_um = spacing * 1e6
    return coefficient_mhz_um * 1e6 / r_um ** order


def trueness_ledger(
    cavity: CavitySpec,
    sigma_z=0.6e-3,
    sigma_x=0.3e-3,
    n_atoms=600,
    delta_plus=None,
    delta_minus=None,
    detuning_rel_uncertainty=0.007,
    pointlike_uncertainty=0.003,
    spacing=75e-6,
    c6_mhz_um6=36.0,
    c3_mhz_um3=2000.0,
) -> TruenessReport:
    """Assemble the relative systematic error budget of the atom-number
    detection.  The point-like item is recomputed from the cloud sizes,
    not hard-coded; interactions are compared against the detunings.
    """
    dp = delta_plus if delta_plus is not None else -2 * np.pi * 8e6
    dm = delta_minus if delta_minus is not None else -2 * np.pi * 26e6
    items = {}
    # analytic mode vs finite-element field: g^2 low by (1 - mode_correction)
    items["mode_correction"] = (1.0 - cavity.mode_correction, 0.0)
    items["detuning_uncertainty"] = (0.0, detuning_rel_uncertainty)
    e4 = fourth_order_error(cavity.g_max, n_atoms, dp, dm)
    # worst case over the atom-number range: book half as the bias
    items["dispersive_fourth_order"] = (-e4 / 2.0, e4 / 2.0)
    items["pointlike_cloud"] = (
        pointlike_correction(sigma_z, sigma_x, cavity),
        pointlike_uncertainty,
    )
    vdw = interaction_shift(spacing, c6_mhz_um6, 6)
    dd = interaction_shift(spacing, c3_mhz_um3, 3)
    rel = 2 * np.pi * max(vdw, dd) / min(abs(dp), abs(dm))
    items["interactions"] = (0.0, rel)
    return TruenessReport(items=items)


# ---------------------------------------------------------------------------
# figure-style scenarios


def _window_average(times, values, center, width):
    sel = (times >= center - width / 2.0) & (times <= center + width / 2.0)
    return float(np.mean(values[sel]))


def run_flythrough(scenario: Scenario) -> dict:
    """Averaged fly-through traces for a resonant and a detuned probe,
    alongside the instantaneous-response curves."""
    kappa = scenario.kappa
    out = {"name": scenario.name, "traces": []}
    model_kw = dict(
        transit_decay=scenario.flag("transit_decay", True),
        extended_cloud=scenario.flag("extended_cloud", False),
    )
    transit = scenario.cavity.length_z / scenario.ensemble.velocity
    t_cen = scenario.ensemble.entry_time + transit / 2.0
    for delta_m in (0.0, kappa / 2.0):
        trace, dphi = simulate_flythrough(
            scenario.ensemble, scenario.cavity, scenario.transitions, delta_m, kappa,
            **model_kw,
        )
        # instantaneous (quasi-static) response for comparison
        from .transmission import fly_through_shift_trace

        shift = fly_through_shift_trace(
            scenario.ensemble, scenario.cavity, scenario.transitions, trace.times,
            **model_kw,
        )
        inst = steady_transmission(shift.chi, delta_m, kappa)
        ref = np.angle(steady_transmission(0.0, delta_m, kappa))
        amp0 = np.abs(steady_transmission(0.0, delta_m, kappa))
        i_ext = int(np.argmax(np.abs(dphi)))
        out["traces"].append(
            {
                "delta_m": delta_m,
                "times": trace.times,
                "amp": trace.amplitude,
                "phase_rad": np.unwrap(trace.phase),
                "dphi_deg": dphi,
                "damp": trace.amplitude - amp0,
                "inst_dphi_deg": np.degrees(np.unwrap(np.angle(inst)) - ref),
                "inst_damp": np.abs(inst) - amp0,
                "t_extremum": float(trace.times[i_ext]),
                "extremum_delay": float(trace.times[i_ext] - t_cen),
                "dphi_extremum_deg": float(dphi[i_ext]),
            }
        )
    out["t_cen"] = t_cen
    out["tau_c"] = 2.0 / kappa
    return out


def phase_at_tmax(scenario: Scenario, n_atoms: float, window=1e-6, **extra) -> float:
    """Model phase change at t_max = t_cen + 2/kappa, averaged over a
    window, for an s-state cloud of the given size."""
    kappa = scenario.kappa
    ens = replace(scenario.ensemble, n_atoms=n_atoms)
    trace, dphi = simulate_flythrough(
        ens, scenario.cavity, scenario.transitions, 0.0, kappa,
        transit_decay=scenario.flag("transit_decay", True),
        extended_cloud=scenario.flag("extended_cloud", False),
        **extra,
    )
    transit = scenario.cavity.length_z / ens.velocity
    t_max = ens.entry_time + transit / 2.0 + 2.0 / kappa
    return _window_average(trace.times, dphi, t_max, window)


def run_sensitivity_sweep(scenario: Scenario) -> dict:
    """Phase change at t_max and MCP signal versus atom number.

    Returns the fitted phase sensitivity (deg/atom) and the
    cross-calibrated MCP sensitivity, which differs from the configured
    single-atom signal by the injected systematic offset.
    """
    n_values = np.asarray(
        scenario.sweep_values or np.linspace(50, 600, 12), dtype=float
    )
    window = scenario.flag("tmax_window", 1e-6)
    dphi = np.array([phase_at_tmax(scenario, n, window=window) for n in n_values])
    # expected MCP signal for the same clouds
    s_mcp = scenario.mcp.s1_atom * n_values
    # cavity-extracted atom number carries the systematic offset of the model
    offset = scenario.flag("systematic_offset", 0.0)
    n_cavity = n_values * (1.0 + offset)

    slope_phase = float(np.polyfit(n_values, dphi, 1)[0])
    mcp_sensitivity = float(np.polyfit(n_cavity, s_mcp, 1)[0])
    resid = dphi - np.polyval(np.polyfit(n_values, dphi, 1), n_values)
    return {
        "name": scenario.name,
        "n_atoms": n_values,
        "dphi_deg": dphi,
        "mcp_signal": s_mcp,
        "n_cavity": n_cavity,
        "phase_sensitivity_deg_per_atom": slope_phase,
        "mcp_sensitivity_vns_per_atom": mcp_sensitivity,
        "linearity_residual_max": float(np.max(np.abs(resid))),
    }


def _effective_chi_per_atom(scenario: Scenario):
    """Low-power per-atom dispersive shift used by single-shot campaigns.

    Uses the time-averaged coupling and either a single effective
    transition back-solved from n_crit or the two-transition sum.
    """
    g_eff = scenario.flag("g_eff", scenario.cavity.g_max)
    n_crit = scenario.flag("n_crit")
    if n_crit is None:
        raise ValueError("campaign scenarios must set flags.n_crit")
    delta_eff = 2.0 * g_eff * np.sqrt(n_crit)
    if scenario.flag("two_transitions", False):
        spacing = scenario.flag("transition_spacing", 2 * np.pi * 18e6)
        chi1 = g_eff ** 2 * (1.0 / delta_eff + 1.0 / (delta_eff + spacing))
    else:
        chi1 = g_eff ** 2 / delta_eff
    return float(chi1), float(n_crit)


def run_power_sweep(scenario: Scenario) -> dict:
    """Phase change versus photon number for several atom numbers, plus
    the residual-excitation curve; input data for the n_crit fit."""
    kappa = scenario.kappa
    chi1, n_crit = _effective_chi_per_atom(scenario)
    n_atoms_list = scenario.sweep_values or [200, 400, 600]
    n_c = np.asarray(
        scenario.flag("photon_grid", np.geomspace(1e3, 1e6, 25)), dtype=float
    )
    datasets = []
    rng = block_rng(scenario.master_seed, 0)
    for j, n_at in enumerate(n_atoms_list):
        chi = core.power_dependent_shift(chi1 * n_at, n_c, n_crit)
        dphi_true = -np.arctan(2.0 * chi / kappa)
        r = detection.snr(n_c, scenario.cavity.kappa_out, scenario.probe.tau_i,
                          scenario.noise.n_noise)
        sigma = detection.phase_change_precision(r, chi, kappa, scenario.probe.alpha)
        sigma = np.sqrt(sigma ** 2 + scenario.noise.digitizer_phase_floor ** 2)
        sigma_mean = sigma / np.sqrt(scenario.shots)
        dphi_meas = np.degrees(dphi_true + sigma_mean * rng.standard_normal(n_c.shape))
        datasets.append(
            {
                "n_atoms": float(n_at),
                "n_c": n_c,
                "dphi_deg": dphi_meas,
                "dphi_true_deg": np.degrees(dphi_true),
                "sigma_deg": np.degrees(sigma_mean),
            }
        )
    excitation_scale = scenario.flag("excitation_scale", 0.038)
    excitation = excitation_scale * core.excited_fraction(n_c, n_crit)
    return {
        "name": scenario.name,
        "datasets": datasets,
        "n_crit_true": n_crit,
        "n_c": n_c,
        "excitation": excitation,
        "excitation_scale": excitation_scale,
    }


def run_rabi_scenario(scenario: Scenario) -> dict:
    """Phase change at t_max and p occupation versus normalized Rabi
    frequency, for the pure p,+1 map and the depolarized map."""
    kappa = scenario.kappa
    ratios = np.asarray(
        scenario.sweep_values or np.linspace(0.0, 1.3, 14), dtype=float
    )
    p_plus = scenario.flag("p_plus", 0.61)
    p_minus = scenario.flag("p_minus", 0.20)
    kw = dict(
        transit_decay=scenario.flag("transit_decay", True),
        extended_cloud=scenario.flag("extended_cloud", False),
    )
    pure = np.array([
        estimation.predict_superposition_phase(
            r, scenario.ensemble, scenario.cavity, scenario.transitions, kappa,
            p_plus=1.0, p_minus=0.0, **kw,
        )
        for r in ratios
    ])
    depol = np.array([
        estimation.predict_superposition_phase(
            r, scenario.ensemble, scenario.cavity, scenario.transitions, kappa,
            p_plus=p_plus, p_minus=p_minus, **kw,
        )
        for r in ratios
    ])
    return {
        "name": scenario.name,
        "rabi_ratio": ratios,
        "p_occupation": np.sin(np.pi * ratios / 2.0) ** 2,
        "dphi_pure_deg": pure,
        "dphi_depolarized_deg": depol,
    }


# ---------------------------------------------------------------------------
# single-shot campaign


def _campaign_block(scenario, chi1, n_crit, mean_n, block_index, n_shots):
    rng = block_rng(scenario.master_seed, block_index)
    kappa = scenario.kappa
    probe = scenario.probe
    red = np.sqrt(1.0 + probe.n_c / n_crit)
    if scenario.flag("poisson_preparation", False):
        n_prep = rng.poisson(mean_n, n_shots).astype(float)
    else:
        n_prep = np.full(n_shots, float(np.rint(mean_n)))
    dphi_true = -np.arctan(2.0 * chi1 * n_prep / (kappa * red))
    amp = np.cos(dphi_true)
    dphi_meas = detection.simulate_phase_shot_batch(
        dphi_true, amp, probe, scenario.noise, rng, scenario.cavity.kappa_out
    )
    n_est = -np.tan(np.radians(dphi_meas)) * kappa * red / (2.0 * chi1)
    s1, s2 = detection.mcp_signal(n_prep, np.zeros_like(n_prep), scenario.mcp, rng)
    with np.errstate(invalid="ignore", divide="ignore"):
        s_r = np.where(s1 > 0, s2 / np.where(s1 > 0, s1, 1.0), np.nan)
    p_p, _ = detection.p_fraction_from_ratio(np.nan_to_num(s_r, nan=scenario.mcp.beta_s),
                                             scenario.mcp)
    return n_prep, dphi_meas, n_est, s1, s2, s_r, p_p


def run_single_shot_campaign(scenario: Scenario, threads: int = 1) -> dict:
    """Per-shot (dphi, N_est, MCP) records plus a precision summary.

    The precision summary reports, per prepared atom number, the standard
    deviation of the cavity estimate and of the MCP estimate, and a
    precision-versus-photon-number curve at the reference atom number.
    """
    chi1, n_crit = _effective_chi_per_atom(scenario)
    mean_n_values = scenario.sweep_values or [500]
    shots = scenario.shots

    per_setting = []
    blocks = []
    block_index = 0
    for mean_n in mean_n_values:
        idx = []
        done = 0
        while done < shots:
            n_b = min(BLOCK_SIZE, shots - done)
            idx.append((block_index, mean_n, n_b))
            block_index += 1
            done += n_b
        blocks.append(idx)

    def work(args):
        b, mean_n, n_b = args
        return b, _campaign_block(scenario, chi1, n_crit, mean_n, b, n_b)

    flat = [a for idx in blocks for a in idx]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = dict(ex.map(work, flat))
    else:
        results = dict(map(work, flat))

    records = {k: [] for k in ("mean_n", "n_prep", "dphi_deg", "n_est", "s1", "s2", "s_r", "p_p")}
    for idx, mean_n in zip(blocks, mean_n_values):
        for b, _mean, n_b in idx:
            n_prep, dphi, n_est, s1, s2, s_r, p_p = results[b]
            records["mean_n"].append(np.full(n_b, float(mean_n)))
            records["n_prep"].append(n_prep)
            records["dphi_deg"].append(dphi)
            records["n_est"].append(n_est)
            records["s1"].append(s1)
            records["s2"].append(s2)
            records["s_r"].append(s_r)
            records["p_p"].append(p_p)
    records = {k: np.concatenate(v) for k, v in records.items()}
    records["shot_id"] = np.arange(records["mean_n"].size)
    records["n_mcp_est"] = records["s1"] / scenario.mcp.s1_atom

    for mean_n in mean_n_values:
        sel = records["mean_n"] == float(mean_n)
        n_est = records["n_est"][sel]
        n_mcp = records["n_mcp_est"][sel]
        dphi = records["dphi_deg"][sel]
        per_setting.append(
            {
                "mean_n": float(mean_n),
                "sigma_dphi_deg": float(np.std(dphi, ddof=1)),
                "sigma_n_cavity": float(np.std(n_est, ddof=1)),
                "sigma_n_rel_cavity": float(np.std(n_est, ddof=1) / max(mean_n, 1)),
                "sigma_n_mcp": float(np.std(n_mcp, ddof=1)),
                "sigma_n_rel_mcp": float(np.std(n_mcp, ddof=1) / max(mean_n, 1)),
            }
        )

    curve = precision_vs_photon_number(scenario, chi1, n_crit)
    return {
        "name": scenario.name,
        "records": records,
        "per_setting": per_setting,
        "photon_curve": curve,
        "n_crit": n_crit,
        "chi_per_atom": chi1,
    }


def precision_vs_photon_number(scenario: Scenario, chi1=None, n_crit=None, n_ref=500.0):
    """Analytic sigma_dphi and sigma_N versus photon number, with the
    digitizer floor included."""
    if chi1 is None or n_crit is None:
        chi1, n_crit = _effective_chi_per_atom(scenario)
    kappa = scenario.kappa
    n_c = np.asarray(scenario.flag("photon_grid", np.geomspace(1e3, 1e6, 31)), dtype=float)
    r = detection.snr(n_c, scenario.cavity.kappa_out, scenario.probe.tau_i,
                      scenario.noise.n_noise)
    chi = core.power_dependent_shift(chi1 * n_ref, n_c, n_crit)
    sigma_dphi = detection.phase_change_precision(r, chi, kappa, scenario.probe.alpha)
    sigma_dphi = np.sqrt(sigma_dphi ** 2 + scenario.noise.digitizer_phase_floor ** 2)
    red = np.sqrt(1.0 + n_c / n_crit)
    sigma_n = sigma_dphi * kappa * red / (2.0 * chi1)
    return {
        "n_c": n_c,
        "sigma_dphi_rad": sigma_dphi,
        "sigma_n": sigma_n,
        "n_ref": n_ref,
    }
