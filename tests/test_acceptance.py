"""End-to-end acceptance criteria for the toolkit.

Each test prints exactly one CRITERION line (PASS/FAIL with the measured
number) before asserting, so the full scorecard is visible in the pytest
output with -s / -v.

Criterion 5b is known to fail, by a factor sqrt(2) that is derived, not
tuned.  The phase-noise model has one SNR, R = n_c kappa_out tau_i /
n_noise, and at the operating point (500 atoms, n_c = 5.9e4) its three
forms agree: sigma_dphi = 0.5257 deg from the per-sample simulator
(20 000 shots), 0.5258 deg from the batch sampler (200 000 shots) and
0.5247 deg from the closed form sqrt((1 + (2 chi/kappa)^2 + 1/alpha) / R).
Propagated through N = chi / chi_1, that is
sigma_N = (kappa/g) sqrt(beta (n_c + n_crit) / R).  The published
closed form has a 2 under the root, a phase variance of beta / (2R),
and is pinned at 37.9 atoms by TestAtomNumberPrecision; the simulated
scatter is sqrt(2) above it.  The closed-form value is asserted anyway
so the discrepancy stays visible.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from rydcav import (
    CavitySpec,
    EnsembleState,
    McpModel,
    NoiseChain,
    ProbeConfig,
    Scenario,
    ShiftTrace,
    TransitionSet,
    atom_number_precision,
    cli,
    core,
    fit_atom_number,
    fit_entry_time,
    fit_power_dependence,
    fit_rabi_calibration,
    fit_spectroscopy,
    phase_change_sigma,
    rabi_calibration_model,
    run_flythrough,
    run_sensitivity_sweep,
    run_single_shot_campaign,
    simulate_flythrough,
    simulate_phase_shot_batch,
    snr,
    spectroscopy_spectrum,
    steady_transmission,
    transmission_response,
    trueness_ledger,
)
from rydcav.configio import load_scenario
from rydcav.estimation import UnidentifiableError  # noqa: F401  (re-export check)

from conftest import CONFIG_DIR
from test_experiments import ONE_TRANSITION, TRANSITIONS, compute_blocks_last_first

TWO_PI = 2.0 * np.pi
KAPPA = TWO_PI * 236e3


def report(tag, ok, detail):
    print(f"\nCRITERION {tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def reference_cavity():
    return CavitySpec(
        omega_c=TWO_PI * 20.5583e9,
        kappa=TWO_PI * 236e3,
        kappa_out=TWO_PI * 150e3,
        length_z=0.014,
        g_max=TWO_PI * 14.3e3,
    )


def campaign_scenario(shots, floor, seed=14, n_c=5.9e4, transitions=TRANSITIONS):
    return Scenario(
        name="acceptance-campaign",
        cavity=reference_cavity(),
        ensemble=EnsembleState(n_atoms=500),
        transitions=transitions,
        probe=ProbeConfig(n_c=n_c, tau_i=6.2e-6, alpha=4.0),
        noise=NoiseChain(n_noise=23.0, digitizer_phase_floor=floor),
        mcp=McpModel(),
        shots=shots,
        sweep_values=[500],
        master_seed=seed,
        n_crit=4.4e4,
        g_eff=TWO_PI * 12.9e3,
    )


def test_criterion_1_dynamic_response_matches_closed_form():
    """Constant-shift dynamic response converges to the steady response
    over a grid of shifts and probe detunings, in under a second."""
    t0 = time.perf_counter()
    dt = (2.0 / KAPPA) / 27.0
    times = np.arange(1200) * dt
    worst = 0.0
    for chi_frac in np.linspace(-0.5, 0.5, 11):
        for dm_frac in np.linspace(-2.0, 2.0, 9):
            chi = chi_frac * KAPPA
            dm = dm_frac * KAPPA
            out = transmission_response(
                ShiftTrace(times, np.full(times.size, chi)), dm, KAPPA
            )
            ref = steady_transmission(chi, dm, KAPPA)
            worst = max(worst, float(np.max(np.abs(out.values - ref)) / abs(ref)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    report("1 steady-grid", ok, f"max rel dev {worst:.2e}, {elapsed:.2f} s")
    assert worst < 1e-6
    assert elapsed < 1.0


def test_criterion_2_resonant_phase_extremum_delay():
    """The resonant fly-through phase extremum lags the cloud center by
    the cavity response time, 1.35 +/- 0.15 us."""
    sc_raw = json.loads((CONFIG_DIR / "flythrough.json").read_text())
    from rydcav.configio import load_scenario

    sc = load_scenario(CONFIG_DIR / "flythrough.json")
    out = run_flythrough(sc)
    delay = out["traces"][0]["extremum_delay"]
    ok = 1.20e-6 <= delay <= 1.50e-6
    report("2 extremum-delay", ok, f"delay {delay * 1e6:.3f} us, band [1.20, 1.50]")
    assert ok
    del sc_raw


def test_criterion_3_phase_sensitivity_slope():
    """Phase change at t_max is linear in atom number with sensitivity
    within 15 % of 1.44e-2 deg/atom."""
    from rydcav.configio import load_scenario

    sc = load_scenario(CONFIG_DIR / "sensitivity.json")
    out = run_sensitivity_sweep(sc)
    slope = abs(out["phase_sensitivity_deg_per_atom"])
    ok = abs(slope / 1.44e-2 - 1.0) < 0.15
    report("3 sensitivity-slope", ok, f"{slope:.3e} deg/atom vs 1.44e-2")
    assert ok


def test_criterion_4_estimator_round_trips():
    """All five estimators recover their generating parameters: exactly
    on noiseless data, and inside stated bands on noisy data."""
    t0 = time.perf_counter()
    cavity = reference_cavity()
    transitions = TransitionSet(-TWO_PI * 8e6, -TWO_PI * 26e6)
    ens = EnsembleState(n_atoms=261)
    kappa = cavity.kappa
    checks = {}

    # 1. atom number, noiseless then noisy
    traces = []
    for dm in (0.0, kappa / 2):
        trace, _ = simulate_flythrough(ens, cavity, transitions, dm, kappa)
        traces.append({"delta_m": dm, "times": trace.times,
                       "amplitude": trace.amplitude,
                       "phase": np.unwrap(trace.phase)})
    fit = fit_atom_number(traces, dataclasses.replace(ens, n_atoms=150),
                          cavity, transitions, kappa)
    checks["n_atoms_noiseless"] = abs(fit["n_atoms"] / 261.0 - 1.0) < 1e-6

    rng = np.random.default_rng(41)
    noisy = []
    for tr in traces:
        dt = tr["times"][1] - tr["times"][0]
        sigma = 1.0 / np.sqrt(snr(600.0, cavity.kappa_out, dt, 23.0) * 55_000)
        noisy.append(dict(tr,
                          amplitude=tr["amplitude"] + rng.normal(0, sigma, tr["times"].size),
                          phase=tr["phase"] + rng.normal(0, sigma, tr["times"].size),
                          sigma_amp=sigma, sigma_phase=sigma))
    fit = fit_atom_number(noisy, dataclasses.replace(ens, n_atoms=150),
                          cavity, transitions, kappa)
    # single-atom-scale statistical resolution: reported sigma about one
    # atom, recovery within three reported sigma
    checks["n_atoms_noisy"] = (
        abs(fit["n_atoms"] - 261.0) < 3.0 * fit.uncertainties["n_atoms"]
        and fit.uncertainties["n_atoms"] < 1.5
    )

    # 2. entry time
    truth = dataclasses.replace(ens, entry_time=1.0e-6)
    trace, dphi = simulate_flythrough(truth, cavity, transitions, 0.0, kappa)
    fit = fit_entry_time(trace.times, dphi,
                         dataclasses.replace(truth, entry_time=1.3e-6),
                         cavity, transitions, 0.0, kappa)
    checks["entry_time"] = abs(fit["entry_time"] - 1.0e-6) < 1e-6 * 1e-6 + 1e-9

    # 3. power dependence
    n_crit = 4.4e4
    chi0 = TWO_PI * 37.857 * 500
    n_c = np.geomspace(1e3, 5e5, 15)
    dphi_p = np.degrees(-np.arctan(2 * chi0 / np.sqrt(1 + n_c / n_crit) / kappa))
    fit = fit_power_dependence([{"n_c": n_c, "dphi_deg": dphi_p}], kappa)
    checks["n_crit"] = abs(fit["n_crit"] / n_crit - 1.0) < 1e-4

    # 4. MCP Rabi calibration
    mcp = McpModel()
    theta = np.linspace(0, 3 * TWO_PI, 80)
    s1, s2, sr = rabi_calibration_model(theta, 12.0, mcp.alpha_p, mcp.beta_s,
                                        mcp.beta_p, mcp.decay_correction)
    fit = fit_rabi_calibration(theta, s1, s2, sr, mcp)
    checks["rabi_cal"] = (abs(fit["alpha_p"] - 0.888) < 1e-6
                          and abs(fit["beta_s"] - 0.439) < 1e-6
                          and abs(fit["beta_p"] - 0.222) < 1e-6)

    # 5. spectroscopy populations
    freqs = np.linspace(-20e6, 20e6, 241)
    kwargs = dict(p_plus=0.61, p_minus=0.20,
                  omega_i_plus=TWO_PI * 1.3333e6, omega_i_minus=TWO_PI * 1.6e6,
                  f_plus=8e6, f_minus=-8e6)
    ratios = [0.0, 0.5, 1.0]
    spectra = [spectroscopy_spectrum(freqs, r, **kwargs) for r in ratios]
    fit = fit_spectroscopy(freqs, spectra, ratios)
    checks["spectroscopy"] = (abs(fit["p_plus"] - 0.61) < 1e-6
                              and abs(fit["p_minus"] - 0.20) < 1e-6)

    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 300.0
    failed = [k for k, v in checks.items() if not v]
    report("4 round-trips", ok,
           f"{len(checks) - len(failed)}/{len(checks)} ok"
           + (f", failed: {failed}" if failed else "")
           + f", {elapsed:.1f} s")
    assert ok


def test_criterion_5a_phase_precision_scaling():
    """Monte Carlo phase scatter matches the analytic precision within
    3 % across four decades of SNR."""
    worst = 0.0
    chi = KAPPA / 20
    dphi_true = -np.arctan(2 * chi / KAPPA)
    for i, r_target in enumerate((1e2, 1e3, 1e4, 1e5, 1e6)):
        n_c = r_target * 23 / (TWO_PI * 150e3 * 6.2e-6)
        probe = ProbeConfig(n_c=n_c, tau_i=6.2e-6, alpha=4.0)
        rng = np.random.default_rng(50 + i)
        noise = NoiseChain(n_noise=23.0)
        out = simulate_phase_shot_batch(np.full(200_000, dphi_true), probe, noise, rng,
                                        TWO_PI * 150e3)
        expect = np.degrees(phase_change_sigma(n_c, dphi_true, TWO_PI * 150e3, probe, noise))
        worst = max(worst, abs(np.std(out, ddof=1) / expect - 1.0))
    ok = worst < 0.03
    report("5a phase-precision", ok, f"max rel dev {worst:.3f} over R 1e2..1e6")
    assert ok


def test_criterion_5b_single_shot_vs_closed_form():
    """Simulated single-shot atom-number scatter against the closed-form
    expression (single effective transition, no digitizer floor).

    Known red.  The per-sample simulator, the batch sampler and the
    closed form give sigma_dphi = 0.5257, 0.5258 and 0.5247 deg at this
    operating point: the phase-noise model agrees with itself.  Through
    N = chi / chi_1 it gives sigma_N = (kappa/g) sqrt(beta (n_c + n_crit) / R),
    while the published closed form divides R by 2 under the root (a phase
    variance of beta / (2R)); the simulation lands sqrt(2) above it.
    """
    sc = campaign_scenario(shots=20_000, floor=0.0, transitions=ONE_TRANSITION)
    out = run_single_shot_campaign(sc)
    sim = out["per_setting"][0]["sigma_n_cavity"]
    closed = atom_number_precision(
        sc.kappa, TWO_PI * 12.9e3, 23.0, sc.cavity.kappa_out, 6.2e-6, 4.0,
        5.9e4, 4.4e4,
    )
    rel = abs(sim / closed - 1.0)
    ok = rel < 0.10
    report("5b closed-form-sigmaN", ok,
           f"simulated {sim:.1f} vs closed form {closed:.1f}, rel dev {rel:.2f}; "
           f"known sqrt(2): published closed form has phase variance beta/(2R), "
           f"the simulated noise model beta/R")
    assert ok


def test_criterion_5c_operating_point_precision_band():
    """With the digitizer floor and both transitions included, the
    single-shot atom-number scatter at the operating point lies in
    [40, 90] atoms."""
    sc = campaign_scenario(shots=20_000, floor=9.88e-3)
    out = run_single_shot_campaign(sc)
    sim = out["per_setting"][0]["sigma_n_cavity"]
    ok = 40.0 <= sim <= 90.0
    report("5c operating-point", ok, f"sigma_N {sim:.1f} atoms, band [40, 90]")
    assert ok


def test_criterion_6_relative_precision_cavity_vs_mcp():
    """At 500 atoms the cavity estimate reaches 13 +/- 3 % relative
    single-shot precision and the MCP reference 4.65 % within 5 %."""
    sc = campaign_scenario(shots=100_000, floor=9.88e-3)
    out = run_single_shot_campaign(sc)
    cav_rel = out["per_setting"][0]["sigma_n_rel_cavity"]
    mcp_rel = out["per_setting"][0]["sigma_n_rel_mcp"]
    ok_cav = abs(cav_rel - 0.13) <= 0.03
    ok_mcp = abs(mcp_rel / 4.649e-2 - 1.0) < 0.05
    ok = ok_cav and ok_mcp
    report("6 relative-precision", ok,
           f"cavity {100 * cav_rel:.1f}% (13+/-3), MCP {100 * mcp_rel:.2f}% vs 4.65%")
    assert ok


def test_criterion_7_measurement_backaction():
    """Residual excitation: exact half point at the critical photon
    number, and the scaled excitation stays below 2 % up to n_crit."""
    n_crit = 4.4e4
    half = core.excited_fraction(n_crit - 1, n_crit)
    n_c = np.geomspace(1.0, n_crit, 200)
    scaled = 0.038 * core.excited_fraction(n_c, n_crit)
    ok = abs(half - 0.5) < 1e-12 and np.all(scaled <= 0.02)
    report("7 backaction", ok,
           f"half point {half:.6f}, max scaled excitation {np.max(scaled) * 100:.2f}%")
    assert ok


def test_criterion_8_trueness_budget():
    """Itemized systematic budget: cloud-extent, expansion-order and
    interaction items at their reference values; total -2.4 +/- 0.8 %."""
    t0 = time.perf_counter()
    rep = trueness_ledger(load_scenario(CONFIG_DIR / "trueness.json"))
    point = rep.items["pointlike_cloud"][0]
    e4 = rep.items["dispersive_fourth_order"]
    inter = rep.items["interactions"][1]
    inter_expect = TWO_PI * 4741.0 / (TWO_PI * 8e6)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(point + 0.0339) < 0.003
        and abs(-e4[0] - 1.05e-3) < 2.5e-4
        and abs(inter / inter_expect - 1.0) < 0.20
        and abs(rep.total + 0.024) < 0.008
        and elapsed < 1.0
    )
    report("8 trueness", ok,
           f"pointlike {100 * point:.2f}%, fourth-order {100 * e4[0]:.3f}%, "
           f"total {100 * rep.total:.2f}% (+/-{100 * rep.total_uncertainty:.2f}), "
           f"{elapsed:.2f} s")
    assert ok


def test_criterion_9_deterministic_replay(tmp_path, monkeypatch):
    """A campaign re-run with its blocks computed last to first reproduces
    the shot table byte for byte."""
    raw = json.loads((CONFIG_DIR / "campaign.json").read_text())
    raw["scenario"]["shots"] = 10_000
    raw["scenario"]["sweep_values"] = [500]
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps(raw))
    out1 = tmp_path / "in_order"
    out2 = tmp_path / "last_first"
    rc1 = cli.main(["campaign", "--config", str(cfg), "--out", str(out1)])
    compute_blocks_last_first(monkeypatch)
    rc2 = cli.main(["campaign", "--config", str(cfg), "--out", str(out2)])
    same = (out1 / "shots.csv").read_bytes() == (out2 / "shots.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    report("9 determinism", ok,
           f"exit codes {rc1}/{rc2}, shots.csv byte-identical: {same}")
    assert ok
