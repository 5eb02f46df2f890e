import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rydcav import (
    CavitySpec,
    DispersiveValidityError,
    EnsembleState,
    McpModel,
    NoiseChain,
    ProbeConfig,
    Scenario,
    SnrValidityError,
    TransitionSet,
    fourth_order_error,
    interaction_shift,
    pointlike_correction,
    run_flythrough,
    run_power_sweep,
    run_rabi_scenario,
    run_sensitivity_sweep,
    run_single_shot_campaign,
    trueness_ledger,
)
from rydcav import core, detection, estimation, experiments
from rydcav.configio import load_scenario
from rydcav.experiments import (BLOCK_SIZE, _campaign_block, block_rng,
                                precision_vs_photon_number)

TWO_PI = 2.0 * np.pi
TRANSITIONS = TransitionSet(-TWO_PI * 8e6, -TWO_PI * 26e6)
# one transition: a second one 1e24 Hz beyond the first, too far away to add to chi_1
ONE_TRANSITION = TransitionSet(-TWO_PI * 8e6, -TWO_PI * 8e6 - TWO_PI * 1e24)


def make_scenario(cavity, n_atoms=261, shots=1000, **kw):
    defaults = dict(
        name="test",
        cavity=cavity,
        ensemble=EnsembleState(n_atoms=n_atoms),
        transitions=TRANSITIONS,
        probe=ProbeConfig(n_c=5.9e4, tau_i=6.2e-6, alpha=4.0),
        noise=NoiseChain(n_noise=23.0),
        mcp=McpModel(),
        shots=shots,
    )
    defaults.update(kw)
    return Scenario(**defaults)


# ---------------------------------------------------------------------------
# systematic-error items


class TestFourthOrder:
    def test_reference_value(self, cavity):
        e4 = fourth_order_error(cavity.g_max, 600, -TWO_PI * 8e6, -TWO_PI * 26e6)
        assert e4 == pytest.approx(2.099e-3, rel=2e-3)

    def test_linear_in_n(self, cavity):
        a = fourth_order_error(cavity.g_max, 300, -TWO_PI * 8e6, -TWO_PI * 26e6)
        b = fourth_order_error(cavity.g_max, 600, -TWO_PI * 8e6, -TWO_PI * 26e6)
        assert b == pytest.approx(2 * a)

    def test_zero_atoms(self, cavity):
        assert fourth_order_error(cavity.g_max, 0, -TWO_PI * 8e6, -TWO_PI * 26e6) == 0.0

    def test_detuning_scaling(self, cavity):
        # equal detunings: e4 = 2 g^2 N / Delta^2, falls as 1/Delta^2
        a = fourth_order_error(cavity.g_max, 100, -TWO_PI * 8e6, -TWO_PI * 8e6)
        b = fourth_order_error(cavity.g_max, 100, -TWO_PI * 16e6, -TWO_PI * 16e6)
        assert a / b == pytest.approx(4.0)


class TestPointlike:
    def test_reference_value(self, cavity):
        c = pointlike_correction(0.6e-3, 0.3e-3, cavity)
        assert c == pytest.approx(-0.0339, abs=0.003)

    def test_point_cloud_zero(self, cavity):
        assert pointlike_correction(0.0, 0.0, cavity) == pytest.approx(0.0, abs=1e-12)

    def test_negative_definite(self, cavity):
        assert pointlike_correction(0.3e-3, 0.0, cavity) < 0.0
        assert pointlike_correction(0.0, 0.3e-3, cavity) < 0.0

    def test_small_size_quadratic(self, cavity):
        # axial term ~ quadruples when sigma_z doubles (quadratic regime)
        a = pointlike_correction(0.2e-3, 0.0, cavity)
        b = pointlike_correction(0.4e-3, 0.0, cavity)
        assert b / a == pytest.approx(4.0, rel=0.05)

    def test_negative_size_rejected(self, cavity):
        with pytest.raises(ValueError):
            pointlike_correction(-1e-3, 0.0, cavity)


class TestInteractionShift:
    def test_vdw_reference(self):
        # 36 MHz um^6 at 75 um
        assert interaction_shift(75e-6, 36.0, 6) == pytest.approx(2.02e-4, rel=0.01)

    def test_dd_reference(self):
        assert interaction_shift(75e-6, 2000.0, 3) == pytest.approx(4741.0, rel=0.01)

    def test_distance_scaling(self):
        assert interaction_shift(150e-6, 36.0, 6) == pytest.approx(
            interaction_shift(75e-6, 36.0, 6) / 64.0
        )

    def test_bad_order(self):
        with pytest.raises(ValueError):
            interaction_shift(75e-6, 36.0, 4)


@pytest.fixture
def trueness_scenario(config_dir):
    return load_scenario(config_dir / "trueness.json")


class TestTruenessLedger:
    def test_reference_budget(self, trueness_scenario):
        rep = trueness_ledger(trueness_scenario)
        assert rep.total == pytest.approx(-0.024, abs=0.008)
        assert rep.total_uncertainty == pytest.approx(0.008, abs=0.003)

    def test_total_is_sum(self, trueness_scenario):
        rep = trueness_ledger(trueness_scenario)
        assert rep.total == pytest.approx(sum(v for v, _ in rep.items.values()))

    def test_uncertainty_quadrature(self, trueness_scenario):
        rep = trueness_ledger(trueness_scenario)
        assert rep.total_uncertainty == pytest.approx(
            np.sqrt(sum(u ** 2 for _, u in rep.items.values()))
        )

    def test_all_zero_configuration(self, trueness_scenario, monkeypatch):
        monkeypatch.setattr(experiments, "C6_MHZ_UM6", 0.0)
        monkeypatch.setattr(experiments, "C3_MHZ_UM3", 0.0)
        sc = trueness_scenario
        rep = trueness_ledger(dataclasses.replace(
            sc,
            cavity=dataclasses.replace(sc.cavity, mode_correction=1.0),
            ensemble=dataclasses.replace(sc.ensemble, sigma_z=0.0, sigma_x=0.0, n_atoms=0),
            detuning_rel_uncertainty=0.0,
            pointlike_uncertainty=0.0,
        ))
        assert rep.total == pytest.approx(0.0, abs=1e-12)
        assert rep.total_uncertainty == pytest.approx(0.0, abs=1e-12)

    def test_table_renders(self, trueness_scenario):
        text = trueness_ledger(trueness_scenario).table()
        assert "total" in text
        assert "pointlike_cloud" in text


# ---------------------------------------------------------------------------
# figure-style runs


@pytest.mark.parametrize("config, runner", [
    ("sensitivity", run_sensitivity_sweep),
    ("power", run_power_sweep),
    ("rabi", run_rabi_scenario),
    ("campaign", run_single_shot_campaign),
])
def test_runner_rejects_empty_sweep(config_dir, config, runner):
    # called from Python, past load_scenario's checks
    sc = dataclasses.replace(load_scenario(config_dir / f"{config}.json"), sweep_values=[])
    with pytest.raises(ValueError, match=r"scenario\.sweep_values: missing required field"):
        runner(sc)


def test_numpy_sweep_values_checked_by_value(config_dir):
    sc = load_scenario(config_dir / "power.json")
    swept = dataclasses.replace(sc, sweep_values=np.array([200.0, 400.0]))
    assert np.array_equal(swept.sweep_values, [200.0, 400.0])
    with pytest.raises(ValueError, match="^sweep_values: must be finite"):
        dataclasses.replace(sc, sweep_values=np.array([200.0, np.nan]))


class TestRunFlythrough:
    def test_delay_band(self, cavity):
        sc = make_scenario(cavity, transit_decay=False)
        out = run_flythrough(sc)
        resonant = out["traces"][0]
        assert resonant["delta_m"] == 0.0
        assert 1.20e-6 <= resonant["extremum_delay"] <= 1.50e-6

    def test_detuned_trace_smaller_phase(self, cavity):
        sc = make_scenario(cavity, transit_decay=False)
        out = run_flythrough(sc)
        res, det = out["traces"]
        assert abs(det["dphi_extremum_deg"]) < abs(res["dphi_extremum_deg"])
        assert det["extremum_delay"] < res["extremum_delay"]

    def test_zero_atoms_flat(self, cavity):
        sc = make_scenario(cavity, n_atoms=0)
        out = run_flythrough(sc)
        for tr in out["traces"]:
            np.testing.assert_allclose(tr["dphi_deg"], 0.0, atol=1e-9)


class TestSensitivitySweep:
    def test_phase_slope(self, cavity):
        sc = make_scenario(
            cavity,
            sweep_values=list(np.linspace(50, 600, 12)),
            transit_decay=False, systematic_offset=-0.024,
        )
        out = run_sensitivity_sweep(sc)
        assert abs(out["phase_sensitivity_deg_per_atom"]) == pytest.approx(
            1.44e-2, rel=0.15
        )

    def test_mcp_cross_calibration(self, cavity):
        sc = make_scenario(
            cavity,
            sweep_values=list(np.linspace(50, 600, 12)),
            transit_decay=False, systematic_offset=-0.024,
        )
        out = run_sensitivity_sweep(sc)
        # cavity numbers read 2.4 % low, so the apparent per-atom MCP signal
        # comes out high by the same factor
        assert out["mcp_sensitivity_vns_per_atom"] == pytest.approx(
            2.07e-2 / 0.976, rel=1e-3
        )

    def test_one_readout_with_rabi_prediction(self, cavity):
        # an all-s Rabi prediction reads the sweep's value at the same N
        sc = make_scenario(cavity, sweep_values=[100.0, 261.0],
                           transit_decay=False)
        out = run_sensitivity_sweep(sc)
        for n, dphi in zip(sc.sweep_values, out["dphi_deg"]):
            ens = dataclasses.replace(sc.ensemble, n_atoms=n)
            assert estimation.predict_superposition_phase(
                0.0, ens, sc.cavity, sc.transitions, sc.kappa,
                transit_decay=sc.transit_decay) == dphi

    def test_linearity(self, cavity):
        sc = make_scenario(
            cavity,
            sweep_values=list(np.linspace(50, 600, 12)),
            transit_decay=False,
        )
        out = run_sensitivity_sweep(sc)
        full_scale = abs(out["dphi_deg"][-1] - out["dphi_deg"][0])
        assert out["linearity_residual_max"] < 0.01 * full_scale


class TestPowerSweep:
    def test_excitation_bounded_below_ncrit(self, cavity):
        sc = make_scenario(
            cavity,
            sweep_values=[200, 400, 600],
            shots=500,
            n_crit=4.4e4, g_eff=TWO_PI * 12.9e3,
        )
        out = run_power_sweep(sc)
        below = out["n_c"] <= out["n_crit_true"]
        assert np.all(out["excitation"][below] <= 0.02)

    def test_signal_halves_at_3_ncrit(self, cavity):
        sc = make_scenario(
            cavity,
            sweep_values=[500],
            shots=100_000,
            n_crit=4.4e4, g_eff=TWO_PI * 12.9e3,
        )
        out = run_power_sweep(sc)
        ds = out["datasets"][0]
        assert out["n_c"][0] == 1e3
        # 3 n_crit read off the sweep's log-spaced grid, log-log
        log_dphi = np.log(np.abs(ds["dphi_true_deg"]))
        ratio = np.exp(np.interp(np.log(3 * 4.4e4), np.log(out["n_c"]), log_dphi) - log_dphi[0])
        # small low-power dressing correction relative to the ideal factor 2
        expect = 0.5 * np.sqrt(1 + 1e3 / 4.4e4)
        assert ratio == pytest.approx(expect, abs=5e-3)

    def test_n_crit_unset_rejected(self, cavity):
        with pytest.raises(ValueError, match="^n_crit is not set$"):
            experiments.effective_chi_per_atom(make_scenario(cavity, sweep_values=[200]))

    @pytest.mark.parametrize("transitions", [ONE_TRANSITION, TRANSITIONS])
    def test_n_crit_at_most_25_violates_dispersive_limit(self, cavity, transitions):
        # Delta = 2 g sqrt(n_crit) <= 10 g sqrt(1) for one atom
        sc = make_scenario(cavity, sweep_values=[200], n_crit=25.0, transitions=transitions)
        with pytest.raises(DispersiveValidityError, match="delta_plus"):
            run_power_sweep(sc)
        sc.n_crit = 26.0
        assert run_power_sweep(sc)["n_crit_true"] == 26.0


def parent_phase_and_sigma(sc, chi0, n_c):
    """The phase and sigma_dphi of the power sweep and the precision curve as
    they were written before the phase map took the power reduction: the
    shift reduced first, chi = chi0 / sqrt(1 + n_c/n_crit), then
    -arctan(2 chi/kappa), and sqrt((1 + (2 chi/kappa)^2 + 1/alpha)/R + floor^2)."""
    chi = chi0 / np.sqrt(1.0 + n_c / sc.n_crit)
    r = detection.snr(n_c, sc.cavity.kappa_out, sc.probe.tau_i, sc.noise.n_noise)
    sigma = 1.0 / np.sqrt(r) * np.sqrt(1.0 + (2.0 * chi / sc.kappa) ** 2 + 1.0 / sc.probe.alpha)
    return (-np.arctan(2.0 * chi / sc.kappa),
            np.sqrt(sigma ** 2 + sc.noise.digitizer_phase_floor ** 2))


def test_reduced_phase_and_window_sigmas_keep_the_parent_forms(config_dir):
    # on the packaged power and campaign grids the phase map with the power
    # reduction inside and the two window sigmas of detection give the
    # former forms' phase, sigma_dphi and sigma_N to 4 ulp, and the packaged
    # `fit power` (seed 14) its n_crit, 44005.4299955932, to 1e-9
    power = load_scenario(config_dir / "power.json")
    chi1, _ = experiments.effective_chi_per_atom(power)
    sweep = run_power_sweep(power)
    for ds in sweep["datasets"]:
        phase, sigma = parent_phase_and_sigma(power, chi1 * ds["n_atoms"], sweep["n_c"])
        np.testing.assert_array_max_ulp(ds["dphi_true_deg"], np.degrees(phase), maxulp=4)
        np.testing.assert_array_max_ulp(ds["sigma_deg"],
                                        np.degrees(sigma / np.sqrt(power.shots)), maxulp=4)
    campaign = load_scenario(config_dir / "campaign.json")
    chi1, n_crit = experiments.effective_chi_per_atom(campaign)
    curve = precision_vs_photon_number(campaign)
    red = np.sqrt(1.0 + curve["n_c"] / n_crit)
    phase, sigma = parent_phase_and_sigma(campaign, chi1 * experiments.N_REF, curve["n_c"])
    np.testing.assert_array_max_ulp(
        core.cavity_phase(chi1 * experiments.N_REF, campaign.kappa, red), phase, maxulp=4)
    np.testing.assert_array_max_ulp(curve["sigma_dphi_rad"], sigma, maxulp=4)
    np.testing.assert_array_max_ulp(curve["sigma_n"],
                                    sigma * campaign.kappa * red / (2.0 * chi1), maxulp=4)
    datasets = run_power_sweep(dataclasses.replace(power, master_seed=14))["datasets"]
    fit = estimation.fit_power_dependence(datasets, power.kappa)
    assert fit["n_crit"] == pytest.approx(44005.4299955932, rel=1e-9, abs=0)


# ---------------------------------------------------------------------------
# single-shot campaign


class TestBlockRng:
    def test_reproducible(self):
        a = block_rng(7, 3).standard_normal(16)
        b = block_rng(7, 3).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = block_rng(7, 3).standard_normal(16)
        b = block_rng(7, 4).standard_normal(16)
        c = block_rng(8, 3).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def campaign_scenario(cavity, shots, seed=14, sweep=(500,)):
    return make_scenario(
        cavity,
        shots=shots,
        sweep_values=list(sweep),
        master_seed=seed,
        noise=NoiseChain(n_noise=23.0, digitizer_phase_floor=9.88e-3),
        n_crit=4.4e4, g_eff=TWO_PI * 12.9e3,
    )


def setting_precision(mean_n, dphi_deg, n_est, n_mcp_est) -> dict:
    """Sample standard deviations of one setting's phase changes and cavity and
    MCP estimates, each by numpy's two-pass std over the setting's contiguous
    rows: the oracle of the summaries merged from per-block moments."""
    sigma_n, sigma_mcp = (float(np.std(x, ddof=1)) for x in (n_est, n_mcp_est))
    return {"mean_n": mean_n, "sigma_dphi_deg": float(np.std(dphi_deg, ddof=1)),
            "sigma_n_cavity": sigma_n, "sigma_n_rel_cavity": sigma_n / max(mean_n, 1),
            "sigma_n_mcp": sigma_mcp, "sigma_n_rel_mcp": sigma_mcp / max(mean_n, 1)}


def degenerate_shots(rec, rows, mcp):
    """The counts of degenerate shots among the records' ``rows``: no atom
    detected, and a window ratio that p_fraction_from_ratio clips."""
    _, clipped = detection.p_fraction_from_ratio(rec["s_r"][rows], mcp)
    return {"shots_no_atom_detected": int(np.count_nonzero(rec["s1"][rows] == 0)),
            "shots_ratio_clipped": int(np.count_nonzero(clipped))}


def blocks_last_first(scenario):
    """The campaign's (block, clip flags) in row order, each computed by
    experiments._campaign_block with its own block index, the last block
    first: a block whose draws depend on when it is computed differs."""
    chi1, n_crit = experiments.effective_chi_per_atom(scenario)
    shots = scenario.shots
    args = [(k * shots + done, mean_n, min(BLOCK_SIZE, shots - done))
            for k, mean_n in enumerate(scenario.sweep_values)
            for done in range(0, shots, BLOCK_SIZE)]
    return [_campaign_block(scenario, chi1, n_crit, b, *args[b])
            for b in reversed(range(len(args)))][::-1]


def compute_blocks_last_first(monkeypatch):
    """Patch experiments._campaign_block so that a campaign's request for its
    block 0 computes all its blocks last to first (:func:`blocks_last_first`),
    and every request is answered from those."""
    computed = []

    def block(scenario, chi1, n_crit, block_index, *args):
        if block_index == 0:
            computed[:] = blocks_last_first(scenario)
        return computed[block_index]

    monkeypatch.setattr(experiments, "_campaign_block", block)


class TestCampaign:
    def test_block_order_invariance(self, cavity):
        # each block draws from its own (master_seed, block) stream, so
        # blocks computed last to first equal the streamed ones bit for bit
        sc = campaign_scenario(cavity, shots=3 * BLOCK_SIZE + 100)
        streamed = list(experiments.campaign_blocks(sc, []))
        last_first = blocks_last_first(sc)
        assert len(streamed) == len(last_first) == 4
        for a, (b, clipped) in zip(streamed, last_first):
            assert a.keys() == b.keys()
            for key in a:
                assert a[key].tobytes() == b[key].tobytes(), key
            assert clipped.tobytes() == detection.p_fraction_from_ratio(
                a["s_r"], sc.mcp)[1].tobytes()

    def test_seed_changes_output(self, cavity):
        a = run_single_shot_campaign(campaign_scenario(cavity, 2000, seed=14))
        b = run_single_shot_campaign(campaign_scenario(cavity, 2000, seed=15))
        assert not np.array_equal(a["records"]["dphi_deg"], b["records"]["dphi_deg"])

    def test_single_shot_rejected(self, cavity):
        # the per-setting standard deviations need two shots
        with pytest.raises(ValueError, match="scenario.shots: type 'campaign' needs at least 2"):
            run_single_shot_campaign(campaign_scenario(cavity, 1))
        assert len(run_single_shot_campaign(campaign_scenario(cavity, 2))["records"]["n_est"]) == 2

    def test_zero_photons_rejected(self, cavity):
        sc = campaign_scenario(cavity, 100)
        sc.probe = ProbeConfig(n_c=0.0)
        with pytest.raises(SnrValidityError):
            run_single_shot_campaign(sc)

    def test_unbiased_estimate(self, cavity):
        out = run_single_shot_campaign(campaign_scenario(cavity, 20_000))
        n_est = out["records"]["n_est"]
        assert np.mean(n_est) == pytest.approx(500.0, abs=3 * np.std(n_est) / np.sqrt(n_est.size))

    def test_precision_matches_analytic_curve(self, cavity):
        sc = campaign_scenario(cavity, 20_000)
        out = run_single_shot_campaign(sc)
        sim = out["per_setting"][0]["sigma_n_cavity"]
        curve = out["photon_curve"]
        expect = float(np.interp(sc.probe.n_c, curve["n_c"], curve["sigma_n"]))
        assert sim == pytest.approx(expect, rel=0.05)

    def test_scatter_shrinks_with_averaging(self, cavity):
        # per-shot sigma is shot-count independent; the standard error of
        # the reported sigma shrinks, so two campaign sizes must agree
        small = run_single_shot_campaign(campaign_scenario(cavity, 1000))
        large = run_single_shot_campaign(campaign_scenario(cavity, 10_000))
        s_small = small["per_setting"][0]["sigma_n_cavity"]
        s_large = large["per_setting"][0]["sigma_n_cavity"]
        assert s_small == pytest.approx(s_large, rel=0.1)

    def test_repeated_setting_uses_its_own_rows(self, cavity):
        shots = 1000
        out = run_single_shot_campaign(campaign_scenario(cavity, shots, sweep=(500, 500)))
        rec = out["records"]
        first, second = out["per_setting"]
        for entry, rows in ((first, slice(0, shots)), (second, slice(shots, 2 * shots))):
            assert entry["sigma_n_cavity"] == np.std(rec["n_est"][rows], ddof=1)
            assert entry["sigma_dphi_deg"] == np.std(rec["dphi_deg"][rows], ddof=1)
            assert entry["sigma_n_mcp"] == np.std(rec["n_mcp_est"][rows], ddof=1)
        assert first["sigma_n_cavity"] != second["sigma_n_cavity"]

    def test_mcp_relative_precision(self, cavity):
        out = run_single_shot_campaign(campaign_scenario(cavity, 20_000))
        rel = out["per_setting"][0]["sigma_n_rel_mcp"]
        assert rel == pytest.approx(4.65e-2, rel=0.05)

    def test_no_detection_gives_nan_p_fraction(self, cavity):
        # at one atom per cloud the MCP often detects nothing: S2/S1 is
        # undefined there, and so is the p fraction
        out = run_single_shot_campaign(campaign_scenario(cavity, BLOCK_SIZE, sweep=(1, 500)))
        rec = out["records"]
        no_atom = rec["s1"] == 0
        assert np.count_nonzero(no_atom) > 0
        np.testing.assert_array_equal(np.isnan(rec["p_p"]), no_atom)

    # the cavity fixture is only read
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shots=st.sampled_from([2, 3, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                                  2 * BLOCK_SIZE + 17]),
           sweep=st.lists(st.integers(0, 600), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_merged_sigma_matches_two_pass_oracle(self, cavity, shots, sweep, seed):
        # each setting's summary, merged from per-block moments in row order,
        # against the two-pass std over the setting's concatenated records
        sc = campaign_scenario(cavity, shots, seed=seed, sweep=sweep)
        out = run_single_shot_campaign(sc)
        rec = out["records"]
        assert len(out["per_setting"]) == len(sweep)
        for k, (mean_n, got) in enumerate(zip(sweep, out["per_setting"])):
            rows = slice(k * shots, (k + 1) * shots)
            want = setting_precision(float(mean_n), rec["dphi_deg"][rows], rec["n_est"][rows],
                                     rec["n_mcp_est"][rows])
            want.update(degenerate_shots(rec, rows, sc.mcp))
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert abs(got[key] - value) <= 1e-15 * abs(value), key

    def test_degenerate_shots_counted(self, cavity, monkeypatch):
        # at one atom per cloud the MCP (eta = 0.55) detects nothing in about
        # 45% of the shots; with s atoms only S2/S1 is beta_s, so every third
        # shot's S2 is scaled out of the band here to give clipped ratios
        mcp_signal = detection.mcp_signal

        def every_third_out_of_band(*args):
            s1, s2 = mcp_signal(*args)
            return s1, s2 * np.where(np.arange(s2.size) % 3 == 0, 1.5, 1.0)

        monkeypatch.setattr(detection, "mcp_signal", every_third_out_of_band)
        shots = 2 * BLOCK_SIZE + 17
        sc = campaign_scenario(cavity, shots, sweep=(1, 500))
        out = run_single_shot_campaign(sc)
        rec = out["records"]
        for k, entry in enumerate(out["per_setting"]):
            rows = slice(k * shots, (k + 1) * shots)
            want = degenerate_shots(rec, rows, sc.mcp)
            assert {key: entry[key] for key in want} == want
        one, many = (entry["shots_no_atom_detected"] for entry in out["per_setting"])
        assert one == pytest.approx(0.45 * shots, rel=0.05) and many == 0
        assert all(entry["shots_ratio_clipped"] > 0 for entry in out["per_setting"])

    @pytest.mark.parametrize("transitions, floor",
                             [(ONE_TRANSITION, 0.0), (TRANSITIONS, 9.88e-3)])
    def test_sigma_n_matches_propagated_noise_model(self, cavity, transitions, floor):
        # the criterion 5b (one transition, no floor) and 5c scenarios: the
        # simulated scatter is the phase-noise model propagated to atoms
        sc = make_scenario(
            cavity, n_atoms=500, shots=20_000, sweep_values=[500], master_seed=14,
            noise=NoiseChain(n_noise=23.0, digitizer_phase_floor=floor),
            n_crit=4.4e4, g_eff=TWO_PI * 12.9e3, transitions=transitions,
        )
        sim = run_single_shot_campaign(sc)["per_setting"][0]["sigma_n_cavity"]
        curve = precision_vs_photon_number(sc)
        expect = float(np.interp(5.9e4, curve["n_c"], curve["sigma_n"]))
        assert sim == pytest.approx(expect, rel=0.04)


class TestPrecisionCurve:
    def test_floor_dominates_at_high_power_without_floor_decreases(self, cavity):
        sc = campaign_scenario(cavity, 100)
        curve = precision_vs_photon_number(sc)
        # with the digitizer floor the curve flattens then rises with the
        # power-broadening factor sqrt(1 + n_c/n_crit)
        assert curve["sigma_n"][0] > np.min(curve["sigma_n"])
        assert curve["sigma_n"][-1] > np.min(curve["sigma_n"])

    def test_reference_sigma_at_operating_point(self, cavity):
        sc = campaign_scenario(cavity, 100)
        curve = precision_vs_photon_number(sc)
        val = float(np.interp(5.9e4, curve["n_c"], curve["sigma_n"]))
        assert val == pytest.approx(65.0, rel=0.05)

    def test_rows_below_the_snr_rule_are_nan(self, cavity):
        # n_noise = 600 leaves the operating point at R = 574 but the curve's
        # n_c = 1e3 at R = 9.7: that row's sigmas are NaN, the other rows are the
        # grid's phase_change_sigma
        sc = campaign_scenario(cavity, 100)
        sc.noise = NoiseChain(n_noise=600.0, digitizer_phase_floor=9.88e-3)
        curve = precision_vs_photon_number(sc)
        assert len(curve["n_c"]) == 31
        assert np.isnan(curve["sigma_dphi_rad"]).tolist() == [True] + 30 * [False]
        assert np.isnan(curve["sigma_n"]).tolist() == [True] + 30 * [False]
        chi1, n_crit = experiments.effective_chi_per_atom(sc)
        n_c = curve["n_c"][1:]
        phase = core.cavity_phase(chi1 * experiments.N_REF, sc.kappa,
                                  core.power_reduction(n_c, n_crit))
        np.testing.assert_array_equal(curve["sigma_dphi_rad"][1:], detection.phase_change_sigma(
            n_c, phase, sc.cavity.kappa_out, sc.probe, sc.noise))


def test_one_transition_is_a_far_second_one(config_dir):
    # on the packaged campaign's g_eff and n_crit, a second transition 1e24 Hz
    # beyond the first adds nothing: chi_1 is the one-transition g_eff^2/Delta_eff,
    # bit for bit; the configured spacing gives the packaged campaign's chi_1
    campaign = load_scenario(config_dir / "campaign.json")
    assert experiments.effective_chi_per_atom(campaign) == (237.86321421087365, 4.4e4)
    one = dataclasses.replace(campaign, transitions=ONE_TRANSITION)
    assert experiments.effective_chi_per_atom(one) == (193.20272374710925, 4.4e4)
