"""Scenario runner: figure-style datasets, single-shot Monte Carlo
campaigns, and the systematic-error (trueness) budget.

Shots are organized in fixed-size blocks, computed in the caller's thread;
block ``b`` of a campaign draws from a counter-based Philox stream keyed by
(master_seed, b), so its results do not depend on when it is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import core, detection, transmission
from .params import (
    CavitySpec,
    EnsembleState,
    McpModel,
    NoiseChain,
    ParameterError,
    ProbeConfig,
    TransitionSet,
    check_bounds,
)
from .transmission import simulate_flythrough, steady_transmission

BLOCK_SIZE = 4096
N_REF = 500.0  # atom number of the precision-versus-photon-number curve
EXCITATION_SCALE = 0.038  # scale of the power sweep's residual-excitation curve
P_PLUS, P_MINUS = 0.61, 0.20  # p,+1 and p,-1 shares of the depolarized Rabi map
C6_MHZ_UM6 = 36.0  # Van der Waals coefficient of the trueness item, MHz um^6
C3_MHZ_UM3 = 2000.0  # resonant dipole-dipole coefficient, MHz um^3


def block_rng(master_seed: int, block_index: int) -> np.random.Generator:
    """Counter-based per-block RNG stream."""
    key = np.array([master_seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The types a scenario can name; None (a scenario built in Python) is also allowed.
SCENARIO_TYPES = ("flythrough", "sensitivity", "power", "rabi", "campaign", "trueness")
# Per scenario type, the settings without a default that its run needs,
# each with the least number of distinct values it takes (a sensitivity
# line fit needs two atom numbers).
REQUIRED = {
    "sensitivity": {"sweep_values": 2},
    "power": {"sweep_values": 1, "n_crit": 1},
    "rabi": {"sweep_values": 1},
    "campaign": {"sweep_values": 1, "n_crit": 1},
    "trueness": {"detuning_rel_uncertainty": 1, "pointlike_uncertainty": 1,
                 "interaction_spacing": 1},
}
# The types whose sweep values are atom numbers (a Rabi scan's are signed ratios).
ATOM_SWEEPS = ("sensitivity", "power", "campaign")


@dataclass
class Scenario:
    """Full parameter bundle for one named run, with the scenario-type
    settings read by the runners; rates in rad/s."""

    name: str
    cavity: CavitySpec
    ensemble: EnsembleState
    transitions: TransitionSet
    probe: ProbeConfig
    noise: NoiseChain
    mcp: McpModel
    shots: int = 1
    sweep_values: list = field(default_factory=list)
    master_seed: int = 0
    type: str | None = None
    transit_decay: bool = True
    systematic_offset: float = 0.0
    g_eff: float | None = None  # None: cavity.g_max
    n_crit: float | None = None  # required by power sweeps and campaigns
    two_transitions: bool = False
    detuning_rel_uncertainty: float | None = None  # required by trueness budgets
    pointlike_uncertainty: float | None = None  # required by trueness budgets
    interaction_spacing: float | None = None  # required by trueness budgets, m

    BOUNDS = {"shots": "integer >0", "sweep_values": "finite",
              "master_seed": "integer in [0, 2**64)", "systematic_offset": "finite",
              "g_eff": ">0", "n_crit": ">0",
              "detuning_rel_uncertainty": ">=0", "pointlike_uncertainty": ">=0",
              "interaction_spacing": ">0"}

    def __post_init__(self):
        check_bounds(self)
        if self.type is not None and self.type not in SCENARIO_TYPES:
            raise ParameterError(f"type: {self.type!r} not one of {', '.join(SCENARIO_TYPES)}")

    @property
    def kappa(self) -> float:
        return self.cavity.kappa

    def require(self, scenario_type):
        """Raise ValueError, naming the setting, unless the scenario holds
        every setting a run of ``scenario_type`` needs (:data:`REQUIRED`),
        with no negative atom number among the sweep values of the types
        in :data:`ATOM_SWEEPS`; a campaign also needs two shots for its
        standard deviations."""
        for key, least in REQUIRED.get(scenario_type, {}).items():
            value = getattr(self, key)
            if value is None or np.size(value) == 0:
                raise ValueError(f"scenario.{key}: missing required field "
                                 f"for type {scenario_type!r}")
            if len(set(np.atleast_1d(value))) < least:
                raise ValueError(f"scenario.{key}: type {scenario_type!r} needs at least "
                                 f"{least} distinct values, got {value}")
            if key == "sweep_values" and scenario_type in ATOM_SWEEPS and np.min(value) < 0:
                raise ValueError(f"scenario.{key}: type {scenario_type!r} sweeps atom "
                                 f"numbers, which must be >= 0, got {value}")
        if scenario_type == "campaign" and self.shots < 2:  # a sample std needs two
            raise ValueError(f"scenario.shots: type 'campaign' needs at least 2 shots, "
                             f"got {self.shots}")

    def flag(self, name, default=None):
        # Read scenario.<name>; this accessor is kept for perfbench/run.py.
        return getattr(self, name, default)


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


def pointlike_correction(sigma_z, sigma_x, cavity: CavitySpec):
    """Relative deviation of the Gaussian-weighted <g^2> from g^2 at the
    cloud center (the antinode nearest the cavity center), from
    :func:`rydcav.core.cloud_mode_average`.  Negative: a spread-out cloud
    couples more weakly.
    """
    if not (sigma_z >= 0 and sigma_x >= 0):
        raise ValueError("cloud sizes must be >= 0")
    p = cavity.mode_antinodes
    k = int(np.round(p / 2.0 - 0.5))
    z0 = (2 * k + 1) * cavity.length_z / (2.0 * p)
    return float(core.cloud_mode_average(z0, cavity, sigma_z, sigma_x) - 1.0)


def interaction_shift(spacing, coefficient_mhz_um, order):
    """Pairwise interaction shift C_k / R^k in Hz.

    ``spacing`` in meters, ``coefficient_mhz_um`` in MHz * um^order
    (order 6: Van der Waals, order 3: resonant dipole-dipole exchange).
    """
    if order not in (3, 6):
        raise ValueError("order must be 3 or 6")
    r_um = spacing * 1e6
    return coefficient_mhz_um * 1e6 / r_um ** order


def trueness_ledger(scenario: Scenario) -> TruenessReport:
    """Assemble the relative systematic error budget of the atom-number
    detection for the scenario's cloud and its two detunings.  The
    point-like item is recomputed from the cloud sizes, not hard-coded;
    interactions are compared against the detunings.
    """
    scenario.require("trueness")
    cavity, ens = scenario.cavity, scenario.ensemble
    dp, dm = scenario.transitions.delta_plus, scenario.transitions.delta_minus
    items = {}
    # analytic mode vs finite-element field: g^2 low by (1 - mode_correction)
    items["mode_correction"] = (1.0 - cavity.mode_correction, 0.0)
    items["detuning_uncertainty"] = (0.0, scenario.detuning_rel_uncertainty)
    e4 = fourth_order_error(cavity.g_max, ens.n_atoms, dp, dm)
    # worst case over the atom-number range: book half as the bias
    items["dispersive_fourth_order"] = (-e4 / 2.0, e4 / 2.0)
    items["pointlike_cloud"] = (
        pointlike_correction(ens.sigma_z, ens.sigma_x, cavity),
        scenario.pointlike_uncertainty,
    )
    vdw = interaction_shift(scenario.interaction_spacing, C6_MHZ_UM6, 6)
    dd = interaction_shift(scenario.interaction_spacing, C3_MHZ_UM3, 3)
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
    _, t_cen = transmission.transit(scenario.ensemble, scenario.cavity)
    shift = transmission.flythrough_shift(scenario.ensemble, scenario.cavity,
                                          scenario.transitions, kappa,
                                          transit_decay=scenario.transit_decay)
    for delta_m in (0.0, kappa / 2.0):
        trace = transmission.transmission_response(shift, delta_m, kappa)
        empty = steady_transmission(0.0, delta_m, kappa)
        ref, amp0 = np.angle(empty), np.abs(empty)
        dphi = transmission.phase_change(trace, ref)
        # instantaneous (quasi-static) response for comparison
        inst = transmission.ComplexTrace(shift.times,
                                         steady_transmission(shift.chi, delta_m, kappa))
        i_ext = int(np.argmax(np.abs(dphi)))
        out["traces"].append(
            {
                "delta_m": delta_m,
                "times": trace.times,
                "amp": trace.amplitude,
                "phase_rad": trace.unwrapped_phase,
                "dphi_deg": dphi,
                "damp": trace.amplitude - amp0,
                "inst_dphi_deg": transmission.phase_change(inst, ref),
                "inst_damp": inst.amplitude - amp0,
                "t_extremum": float(trace.times[i_ext]),
                "extremum_delay": float(trace.times[i_ext] - t_cen),
                "dphi_extremum_deg": float(dphi[i_ext]),
            }
        )
    out["t_cen"] = t_cen
    out["tau_c"] = 2.0 / kappa
    return out


def run_sensitivity_sweep(scenario: Scenario) -> dict:
    """Phase change at t_max (:func:`rydcav.transmission.readout_phase`) and
    MCP signal versus atom number.

    Returns the fitted phase sensitivity (deg/atom) and the
    cross-calibrated MCP sensitivity, which differs from the configured
    single-atom signal by the injected systematic offset.
    """
    scenario.require("sensitivity")
    kappa = scenario.kappa
    n_values = np.asarray(scenario.sweep_values, dtype=float)
    dphi = []
    for n in n_values:  # s-state clouds of each size
        ens = replace(scenario.ensemble, n_atoms=n)
        trace, dphi_n = simulate_flythrough(ens, scenario.cavity, scenario.transitions, 0.0,
                                            kappa, transit_decay=scenario.transit_decay)
        dphi.append(transmission.readout_phase(trace.times, dphi_n, ens, scenario.cavity,
                                               kappa))
    dphi = np.array(dphi)
    # expected MCP signal for the same clouds
    s_mcp = scenario.mcp.s1_atom * n_values
    # cavity-extracted atom number carries the systematic offset of the model
    n_cavity = n_values * (1.0 + scenario.systematic_offset)

    phase_line = np.polyfit(n_values, dphi, 1)
    mcp_sensitivity = float(np.polyfit(n_cavity, s_mcp, 1)[0])
    resid = dphi - np.polyval(phase_line, n_values)
    return {
        "name": scenario.name,
        "n_atoms": n_values,
        "dphi_deg": dphi,
        "mcp_signal": s_mcp,
        "n_cavity": n_cavity,
        "phase_sensitivity_deg_per_atom": float(phase_line[0]),
        "mcp_sensitivity_vns_per_atom": mcp_sensitivity,
        "linearity_residual_max": float(np.max(np.abs(resid))),
    }


def effective_chi_per_atom(scenario: Scenario):
    """Low-power per-atom dispersive shift used by power sweeps and campaigns.

    g_eff^2 a_s (:func:`rydcav.core.population_coefficients`) of one s atom at
    the time-averaged coupling, with the detuning Delta = 2 g sqrt(n_crit) back-solved from
    n_crit (the inverse of :func:`rydcav.core.critical_photon_number`) and
    either a second transition |delta_plus - delta_minus| further away or
    none (infinite detuning).  Its validity rule rejects n_crit <= 25.
    """
    g_eff = scenario.cavity.g_max if scenario.g_eff is None else scenario.g_eff
    n_crit = scenario.n_crit
    if n_crit is None:
        raise ValueError("n_crit is not set")
    delta_eff = 2.0 * g_eff * np.sqrt(n_crit)
    dp, dm = scenario.transitions.delta_plus, scenario.transitions.delta_minus
    second = -(delta_eff + abs(dp - dm)) if scenario.two_transitions else -np.inf
    a_s, _ = core.population_coefficients(EnsembleState(n_atoms=1.0), g_eff, -delta_eff, second)
    return float(np.square(g_eff) * a_s), float(n_crit)


def run_power_sweep(scenario: Scenario) -> dict:
    """Phase change versus photon number for several atom numbers, plus
    the residual-excitation curve; input data for the n_crit fit."""
    scenario.require("power")
    kappa = scenario.kappa
    chi1, n_crit = effective_chi_per_atom(scenario)
    n_c = np.geomspace(1e3, 1e6, 25)
    datasets = []
    rng = block_rng(scenario.master_seed, 0)
    for n_at in scenario.sweep_values:
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
    excitation = EXCITATION_SCALE * core.excited_fraction(n_c, n_crit)
    return {
        "name": scenario.name,
        "datasets": datasets,
        "n_crit_true": n_crit,
        "n_c": n_c,
        "excitation": excitation,
        "excitation_scale": EXCITATION_SCALE,
    }


def run_rabi_scenario(scenario: Scenario) -> dict:
    """Phase change at t_max and p occupation versus normalized Rabi
    frequency, for the pure p,+1 map and the depolarized map."""
    from . import estimation  # loaded by the runs that use it only

    scenario.require("rabi")
    kappa = scenario.kappa
    ratios = np.asarray(scenario.sweep_values, dtype=float)
    pure, depol = (np.array([
        estimation.predict_superposition_phase(
            r, scenario.ensemble, scenario.cavity, scenario.transitions, kappa,
            p_plus=p_plus, p_minus=p_minus, transit_decay=scenario.transit_decay,
        )
        for r in ratios
    ]) for p_plus, p_minus in ((1.0, 0.0), (P_PLUS, P_MINUS)))
    return {
        "name": scenario.name,
        "rabi_ratio": ratios,
        "p_occupation": estimation.rabi_transfer(ratios),
        "dphi_pure_deg": pure,
        "dphi_depolarized_deg": depol,
    }


# ---------------------------------------------------------------------------
# single-shot campaign


def _campaign_block(scenario, chi1, n_crit, block_index, row, mean_n, n_shots):
    rng = block_rng(scenario.master_seed, block_index)
    kappa = scenario.kappa
    probe = scenario.probe
    red = core.power_reduction(probe.n_c, n_crit)
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
    p_p, clipped = detection.p_fraction_from_ratio(s_r, scenario.mcp)
    # the block's records, and its clip flags, which _SettingMoments counts (no column)
    return {"shot_id": np.arange(row, row + n_shots), "mean_n": np.full(n_shots, float(mean_n)),
            "n_prep": n_prep, "dphi_deg": dphi_meas, "n_est": n_est, "s1": s1, "s2": s2,
            "s_r": s_r, "p_p": p_p, "n_mcp_est": s1 / scenario.mcp.s1_atom}, clipped


# the record columns whose per-setting standard deviations summary.json reports
SUMMARIZED = ("dphi_deg", "n_est", "n_mcp_est")


class _SettingMoments:
    """Shot count, means and M2 (sums of squared deviations from the mean) of
    one setting's :data:`SUMMARIZED` columns, and its degenerate shots: those
    where the MCP detects no atom (S1 = 0, so the window ratio is NaN) and
    those whose ratio :func:`detection.p_fraction_from_ratio` clipped in the block.

    Each block adds its own two-pass mean and M2, merged in row order by
    the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 242, 1983),
    so the memory held does not grow with the shot count."""

    def __init__(self):
        self.n = self.no_atom = self.clipped = 0
        self.mean = self.m2 = None

    def add(self, block, clipped):
        n_b = len(block["s1"])
        mean_b = np.array([block[k].mean() for k in SUMMARIZED])
        m2_b = np.array([np.square(block[k] - m).sum() for k, m in zip(SUMMARIZED, mean_b)])
        if self.n == 0:  # taken as they are, so a one-block setting keeps np.std's bits
            self.mean, self.m2 = mean_b, m2_b
        else:
            n = self.n + n_b
            delta = mean_b - self.mean
            self.mean = self.mean + delta * n_b / n
            self.m2 = self.m2 + m2_b + delta**2 * self.n * n_b / n
        self.n += n_b
        self.no_atom += int(np.count_nonzero(block["s1"] == 0))
        self.clipped += int(np.count_nonzero(clipped))

    def summary(self, mean_n) -> dict:
        """Sample standard deviations of the phase change and of the cavity and
        MCP estimates, and the counts of degenerate shots."""
        sigma_dphi, sigma_n, sigma_mcp = (float(s) for s in np.sqrt(self.m2 / (self.n - 1)))
        return {"mean_n": mean_n, "sigma_dphi_deg": sigma_dphi,
                "sigma_n_cavity": sigma_n, "sigma_n_rel_cavity": sigma_n / max(mean_n, 1),
                "sigma_n_mcp": sigma_mcp, "sigma_n_rel_mcp": sigma_mcp / max(mean_n, 1),
                "shots_no_atom_detected": self.no_atom, "shots_ratio_clipped": self.clipped}


def campaign_blocks(scenario: Scenario, per_setting: list):
    """Yield the campaign's records in row order (setting after setting), as
    one dict of columns per block of at most :data:`BLOCK_SIZE` shots, each
    computed in the caller's thread when the consumer asks for it.  Each
    setting's summary (:class:`_SettingMoments`), merged from its blocks'
    moments, joins ``per_setting`` before its last block."""
    scenario.require("campaign")
    chi1, n_crit = effective_chi_per_atom(scenario)
    shots = scenario.shots
    per = -(-shots // BLOCK_SIZE)  # blocks per setting
    for k, mean_n in enumerate(scenario.sweep_values):
        moments = _SettingMoments()
        for j in range(per):
            done = j * BLOCK_SIZE  # shots of the setting before the block
            n_shots = min(BLOCK_SIZE, shots - done)
            block, clipped = _campaign_block(scenario, chi1, n_crit, k * per + j,
                                             k * shots + done, mean_n, n_shots)
            moments.add(block, clipped)
            if j == per - 1:
                per_setting.append(moments.summary(float(mean_n)))
            yield block


def run_single_shot_campaign(scenario: Scenario, threads: int = 1) -> dict:
    """Per-shot records, :func:`campaign_blocks` concatenated, plus a precision summary.

    The precision summary reports, per prepared atom number, the standard
    deviation of the cavity estimate and of the MCP estimate, and a
    precision-versus-photon-number curve at the reference atom number.
    ``threads`` is ignored; it is kept for perfbench/run.py, which passes it.
    """
    per_setting = []
    blocks = list(campaign_blocks(scenario, per_setting))
    return {"per_setting": per_setting, "photon_curve": precision_vs_photon_number(scenario),
            "records": {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}}


def precision_vs_photon_number(scenario: Scenario):
    """Analytic sigma_dphi and sigma_N versus photon number at
    :data:`N_REF` atoms, with the digitizer floor included."""
    chi1, n_crit = effective_chi_per_atom(scenario)
    kappa = scenario.kappa
    n_c = np.geomspace(1e3, 1e6, 31)
    chi = core.power_dependent_shift(chi1 * N_REF, n_c, n_crit)
    sigma_dphi = detection.phase_change_sigma(n_c, chi, kappa, scenario.cavity.kappa_out,
                                              scenario.probe, scenario.noise)
    sigma_n = sigma_dphi * kappa * core.power_reduction(n_c, n_crit) / (2.0 * chi1)
    return {"n_c": n_c, "sigma_dphi_rad": sigma_dphi, "sigma_n": sigma_n}
