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
from .transmission import simulate_flythrough, steady_transmission, window_samples

BLOCK_SIZE = 4096


def block_rng(master_seed: int, block_index: int) -> np.random.Generator:
    """Counter-based per-block RNG stream."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class Flags:
    """Scenario-type settings read by the runners; rates in rad/s."""

    transit_decay: bool = True
    extended_cloud: bool = False
    tmax_window: float = 1e-6
    systematic_offset: float = 0.0
    g_eff: float | None = None  # None: cavity.g_max
    n_crit: float | None = None  # required by power sweeps and campaigns
    two_transitions: bool = False
    transition_spacing: float = 2 * np.pi * 18e6
    photon_grid: list | None = None  # None: each runner's own grid
    excitation_scale: float = 0.038
    p_plus: float = 0.61
    p_minus: float = 0.20
    poisson_preparation: bool = False
    detuning_rel_uncertainty: float = 0.007
    pointlike_uncertainty: float = 0.003
    interaction_spacing: float = 75e-6

    @property
    def model_kw(self) -> dict:
        """Fly-through model switches, as keyword arguments."""
        return {"transit_decay": self.transit_decay, "extended_cloud": self.extended_cloud}


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
    flags: Flags = field(default_factory=Flags)
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
        # Read scenario.flags.<name>; this accessor is kept for perfbench/run.py.
        return getattr(self.flags, name, default)


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


def run_flythrough(scenario: Scenario) -> dict:
    """Averaged fly-through traces for a resonant and a detuned probe,
    alongside the instantaneous-response curves."""
    kappa = scenario.kappa
    out = {"name": scenario.name, "traces": []}
    model_kw = scenario.flags.model_kw
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
        **scenario.flags.model_kw, **extra,
    )
    transit = scenario.cavity.length_z / ens.velocity
    t_max = ens.entry_time + transit / 2.0 + 2.0 / kappa
    sel = window_samples(trace.times, (t_max - window / 2.0, t_max + window / 2.0),
                         "t_max window")
    return float(np.mean(dphi[sel]))


def run_sensitivity_sweep(scenario: Scenario) -> dict:
    """Phase change at t_max and MCP signal versus atom number.

    Returns the fitted phase sensitivity (deg/atom) and the
    cross-calibrated MCP sensitivity, which differs from the configured
    single-atom signal by the injected systematic offset.
    """
    n_values = np.asarray(
        scenario.sweep_values or np.linspace(50, 600, 12), dtype=float
    )
    dphi = np.array([phase_at_tmax(scenario, n, window=scenario.flags.tmax_window)
                     for n in n_values])
    # expected MCP signal for the same clouds
    s_mcp = scenario.mcp.s1_atom * n_values
    # cavity-extracted atom number carries the systematic offset of the model
    n_cavity = n_values * (1.0 + scenario.flags.systematic_offset)

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
    flags = scenario.flags
    g_eff = scenario.cavity.g_max if flags.g_eff is None else flags.g_eff
    n_crit = flags.n_crit
    if n_crit is None:
        raise ValueError("campaign scenarios must set flags.n_crit")
    delta_eff = 2.0 * g_eff * np.sqrt(n_crit)
    if flags.two_transitions:
        chi1 = g_eff ** 2 * (1.0 / delta_eff + 1.0 / (delta_eff + flags.transition_spacing))
    else:
        chi1 = g_eff ** 2 / delta_eff
    return float(chi1), float(n_crit)


def run_power_sweep(scenario: Scenario) -> dict:
    """Phase change versus photon number for several atom numbers, plus
    the residual-excitation curve; input data for the n_crit fit."""
    kappa = scenario.kappa
    chi1, n_crit = _effective_chi_per_atom(scenario)
    n_atoms_list = scenario.sweep_values or [200, 400, 600]
    grid = scenario.flags.photon_grid
    n_c = np.asarray(np.geomspace(1e3, 1e6, 25) if grid is None else grid, dtype=float)
    datasets = []
    rng = block_rng(scenario.master_seed, 0)
    for n_at in n_atoms_list:
        chi = core.power_dependent_shift(chi1 * n_at, n_c, n_crit)
        dphi_true = core.cavity_phase(chi, kappa)
        sigma = detection.phase_change_sigma(n_c, chi, kappa, scenario.cavity.kappa_out,
                                             scenario.probe, scenario.noise)
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
    excitation_scale = scenario.flags.excitation_scale
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
    kw = scenario.flags.model_kw
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
            p_plus=scenario.flags.p_plus, p_minus=scenario.flags.p_minus, **kw,
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
    red = core.power_reduction(probe.n_c, n_crit)
    if scenario.flags.poisson_preparation:
        n_prep = rng.poisson(mean_n, n_shots).astype(float)
    else:
        n_prep = np.full(n_shots, float(np.rint(mean_n)))
    dphi_true = core.cavity_phase(chi1 * n_prep, kappa, red)
    amp = np.cos(dphi_true)
    dphi_meas = detection.simulate_phase_shot_batch(
        dphi_true, amp, probe, scenario.noise, rng, scenario.cavity.kappa_out
    )
    n_est = core.shift_from_phase(np.radians(dphi_meas), kappa, red) / chi1
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

    # blocks in order: setting after setting, each one's shots in contiguous rows
    per_block = [min(BLOCK_SIZE, shots - done) for done in range(0, shots, BLOCK_SIZE)]
    blocks = list(enumerate((mean_n, n_b) for mean_n in mean_n_values for n_b in per_block))

    def work(block):
        b, (mean_n, n_b) = block
        return _campaign_block(scenario, chi1, n_crit, mean_n, b, n_b)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(work, blocks))
    else:
        results = list(map(work, blocks))

    records = {"mean_n": np.concatenate([np.full(n_b, float(m)) for _, (m, n_b) in blocks])}
    for i, key in enumerate(("n_prep", "dphi_deg", "n_est", "s1", "s2", "s_r", "p_p")):
        records[key] = np.concatenate([res[i] for res in results])
    records["shot_id"] = np.arange(records["mean_n"].size)
    records["n_mcp_est"] = records["s1"] / scenario.mcp.s1_atom

    per_setting = []
    for k, mean_n in enumerate(mean_n_values):
        rows = slice(k * shots, (k + 1) * shots)
        sigma_n = float(np.std(records["n_est"][rows], ddof=1))
        sigma_mcp = float(np.std(records["n_mcp_est"][rows], ddof=1))
        per_setting.append({
            "mean_n": float(mean_n),
            "sigma_dphi_deg": float(np.std(records["dphi_deg"][rows], ddof=1)),
            "sigma_n_cavity": sigma_n,
            "sigma_n_rel_cavity": sigma_n / max(mean_n, 1),
            "sigma_n_mcp": sigma_mcp,
            "sigma_n_rel_mcp": sigma_mcp / max(mean_n, 1),
        })

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
    grid = scenario.flags.photon_grid
    n_c = np.asarray(np.geomspace(1e3, 1e6, 31) if grid is None else grid, dtype=float)
    chi = core.power_dependent_shift(chi1 * n_ref, n_c, n_crit)
    sigma_dphi = detection.phase_change_sigma(n_c, chi, kappa, scenario.cavity.kappa_out,
                                              scenario.probe, scenario.noise)
    sigma_n = sigma_dphi * kappa * core.power_reduction(n_c, n_crit) / (2.0 * chi1)
    return {
        "n_c": n_c,
        "sigma_dphi_rad": sigma_dphi,
        "sigma_n": sigma_n,
        "n_ref": n_ref,
    }
