import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcav import (
    ComplexTrace,
    NoiseChain,
    ProbeConfig,
    atom_number_precision,
    core,
    mcp_relative_precision,
    mcp_signal,
    p_fraction_from_ratio,
    phase_change_sigma,
    phase_precision,
    simulate_phase_shot_batch,
    snr,
    steady_transmission,
)
from rydcav.detection import SnrValidityError
from rydcav.params import TAU_P, TAU_S
from rydcav.transmission import WindowConfigError

TWO_PI = 2.0 * np.pi
KAPPA = TWO_PI * 236e3
KAPPA_OUT = TWO_PI * 150e3


class TestSnrAndPhasePrecision:
    def test_reference_value(self):
        r = snr(5.9e4, KAPPA_OUT, 6.2e-6, 23)
        assert r == pytest.approx(1.50e4, rel=1e-2)
        assert phase_precision(r) == pytest.approx(8.17e-3, rel=1e-3)

    def test_zero_photons(self):
        assert snr(0.0, KAPPA_OUT, 6.2e-6, 23) == 0.0

    def test_linear_in_photons(self):
        assert snr(2e4, KAPPA_OUT, 6.2e-6, 23) == pytest.approx(
            2 * snr(1e4, KAPPA_OUT, 6.2e-6, 23)
        )

    def test_trivial_points(self):
        assert phase_precision(1e4) == pytest.approx(0.01)
        assert phase_precision(100.0) == pytest.approx(0.1)

    def test_low_snr_rejected(self):
        with pytest.raises(SnrValidityError):
            phase_precision(5.0)


class TestPhaseChangePrecision:
    """:func:`phase_change_sigma` without a floor at R = 1e4 (1/sqrt(R) = 0.01)."""

    R = 1e4

    def sigma(self, phase, alpha):
        probe = ProbeConfig(n_c=self.R * 23.0 / (KAPPA_OUT * 6.2e-6), tau_i=6.2e-6, alpha=alpha)
        return phase_change_sigma(probe.n_c, phase, KAPPA_OUT, probe, NoiseChain(n_noise=23.0))

    def test_reference_limit(self):
        assert self.sigma(0.0, 1e12) == pytest.approx(phase_precision(self.R), rel=1e-6)

    def test_alpha4(self):
        assert self.sigma(0.0, 4.0) == pytest.approx(phase_precision(self.R) * np.sqrt(1.25))

    def test_pulled_resonance(self):
        # 2 chi / kappa = 1: the phase is -45 deg and the signal window's
        # variance doubles, (2 + 1/4) / R
        phase = core.cavity_phase(KAPPA / 2, KAPPA)
        assert self.sigma(phase, 4.0) == pytest.approx(1.5 * phase_precision(self.R))

    @pytest.mark.parametrize("r", [0.0, 5.0])
    def test_low_snr_rejected(self, r):
        probe = ProbeConfig(n_c=r * 23.0 / (KAPPA_OUT * 6.2e-6), tau_i=6.2e-6, alpha=4.0)
        with pytest.raises(SnrValidityError):
            phase_change_sigma(probe.n_c, 0.0, KAPPA_OUT, probe, NoiseChain(n_noise=23.0))


def test_phase_change_sigma_adds_floor_in_quadrature(probe):
    n_c = np.geomspace(1e3, 1e6, 5)
    phase = core.cavity_phase(TWO_PI * 5e3, KAPPA)
    bare = phase_change_sigma(n_c, phase, KAPPA_OUT, probe, NoiseChain(n_noise=23.0))
    floored = NoiseChain(n_noise=23.0, digitizer_phase_floor=9.88e-3)
    np.testing.assert_allclose(phase_change_sigma(n_c, phase, KAPPA_OUT, probe, floored),
                               np.hypot(bare, 9.88e-3), rtol=1e-14)


class TestAtomNumberPrecision:
    def test_reference_value(self):
        s = atom_number_precision(KAPPA, TWO_PI * 12.9e3, 23, KAPPA_OUT, 6.2e-6, 4.0,
                                  5.9e4, 4.4e4)
        assert s == pytest.approx(37.9, rel=0.01)
        # phase_change_sigma at phase 0, propagated through N = chi / chi_1
        # with chi_1 = g / (2 sqrt(n_crit)) reduced by the probe power, is
        # the same expression at R in place of 2R: criterion 5b's sqrt(2)
        probe, n_crit = ProbeConfig(n_c=5.9e4, tau_i=6.2e-6, alpha=4.0), 4.4e4
        sigma = phase_change_sigma(probe.n_c, 0.0, KAPPA_OUT, probe, NoiseChain(n_noise=23.0))
        propagated = (sigma * KAPPA * core.power_reduction(probe.n_c, n_crit)
                      * np.sqrt(n_crit) / (TWO_PI * 12.9e3))
        assert propagated == pytest.approx(np.sqrt(2) * s, rel=1e-12)

    def test_high_power_floor(self):
        floor = atom_number_precision(KAPPA, TWO_PI * 12.9e3, 23, KAPPA_OUT, 6.2e-6,
                                      4.0, 1e12, 4.4e4)
        beta = 1.25
        expect = (KAPPA / (TWO_PI * 12.9e3)) * np.sqrt(
            beta * 23 / (2 * KAPPA_OUT * 6.2e-6)
        )
        assert floor == pytest.approx(expect, rel=1e-4)

    def test_tau_scaling(self):
        a = atom_number_precision(KAPPA, TWO_PI * 12.9e3, 23, KAPPA_OUT, 6.2e-6, 4.0,
                                  1e10, 4.4e4)
        b = atom_number_precision(KAPPA, TWO_PI * 12.9e3, 23, KAPPA_OUT, 4 * 6.2e-6,
                                  4.0, 1e10, 4.4e4)
        assert b == pytest.approx(a / 2, rel=1e-3)

    def test_structure_invariant(self):
        # sigma_N * sqrt(n_c/(n_c+n_crit)) is independent of n_c
        vals = [
            atom_number_precision(KAPPA, TWO_PI * 12.9e3, 23, KAPPA_OUT, 6.2e-6, 4.0,
                                  n_c, 4.4e4) * np.sqrt(n_c / (n_c + 4.4e4))
            for n_c in (1e3, 1e4, 1e5, 1e6)
        ]
        np.testing.assert_allclose(vals, vals[0], rtol=1e-12)

    def test_zero_photons_rejected(self):
        with pytest.raises(ZeroDivisionError):
            atom_number_precision(KAPPA, TWO_PI * 12.9e3, 23, KAPPA_OUT, 6.2e-6, 4.0,
                                  0.0, 4.4e4)


def _steady_trace(chi, kappa=KAPPA, dm=0.0, span=40e-6, dt=5e-8, transit_end=10e-6):
    """Shifted steady state during transit, bare cavity afterwards."""
    times = np.arange(0.0, span, dt)
    vals = np.where(
        times < transit_end,
        steady_transmission(chi, dm, kappa),
        steady_transmission(0.0, dm, kappa),
    )
    return ComplexTrace(times, vals)


def _noisy_window_phase(values, sigma_q, rng):
    noisy = values + sigma_q * (
        rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    )
    return float(np.angle(np.mean(noisy)))


def per_sample_phase_shot(true_trace, probe, noise, rng, kappa_out, signal_window,
                          reference_window):
    """One stochastic phase-change measurement, in degrees: the per-sample
    oracle of :func:`rydcav.detection.simulate_phase_shot_batch`.

    Additive complex Gaussian noise per sample, with per-quadrature variance
    chosen so the window-averaged phase variance of a unit-amplitude signal
    equals 1/R_S/N; the additive character automatically produces the
    (2 chi/kappa)^2 power penalty of a pulled resonance.  Independent
    digitizer phase noise (std = digitizer_phase_floor) is added once, and
    the reference-window phase is subtracted.
    """
    times = true_trace.times
    if reference_window[0] < signal_window[1]:
        raise WindowConfigError("reference window overlaps the signal window")

    # per-quadrature noise std of one sample at SNR R(dt): the mean of
    # n = tau/dt samples then has quadrature and phase variance 1/R(tau)
    sigma_q = 1.0 / np.sqrt(snr(probe.n_c, kappa_out, true_trace.dt, noise.n_noise))

    values = true_trace.values
    sig = (times >= signal_window[0]) & (times <= signal_window[1])
    ref = (times >= reference_window[0]) & (times <= reference_window[1])
    phi_sig = _noisy_window_phase(values[sig], sigma_q, rng)
    phi_ref = _noisy_window_phase(values[ref], sigma_q, rng)
    dphi = phi_sig - phi_ref
    if noise.digitizer_phase_floor > 0:
        dphi += noise.digitizer_phase_floor * rng.standard_normal()
    return float(np.degrees(dphi))


class TestSimulatePhaseShot:
    def test_noiseless_exact(self, probe):
        chi = TWO_PI * 10e3
        trace = _steady_trace(chi)
        quiet = NoiseChain(n_noise=1e-12)
        rng = np.random.default_rng(0)
        dphi = per_sample_phase_shot(trace, probe, quiet, rng, KAPPA_OUT,
                                     signal_window=(0, 6.2e-6),
                                     reference_window=(15e-6, 39e-6))
        expect = np.degrees(np.angle(steady_transmission(chi, 0.0, KAPPA)))
        assert dphi == pytest.approx(expect, abs=1e-4)

    def test_mc_std_matches_analytic(self, probe, noise):
        chi = TWO_PI * 10e3
        trace = _steady_trace(chi)
        rng = np.random.default_rng(1)
        shots = 4000
        out = np.array([
            per_sample_phase_shot(trace, probe, noise, rng, KAPPA_OUT,
                                  signal_window=(0, 6.2e-6),
                                  reference_window=(15e-6, 39.8e-6))
            for _ in range(shots)
        ])
        expect = np.degrees(phase_change_sigma(probe.n_c, core.cavity_phase(chi, KAPPA),
                                               KAPPA_OUT, probe, noise))
        assert np.std(out, ddof=1) == pytest.approx(expect, rel=0.05)

    def test_unbiased(self, probe, noise):
        chi = TWO_PI * 10e3
        trace = _steady_trace(chi)
        rng = np.random.default_rng(2)
        shots = 3000
        out = np.array([
            per_sample_phase_shot(trace, probe, noise, rng, KAPPA_OUT,
                                  signal_window=(0, 6.2e-6),
                                  reference_window=(15e-6, 39.8e-6))
            for _ in range(shots)
        ])
        expect = np.degrees(np.angle(steady_transmission(chi, 0.0, KAPPA)))
        assert abs(np.mean(out) - expect) < 4 * np.std(out) / np.sqrt(shots)

    def test_window_overlap_rejected(self, probe, noise):
        trace = _steady_trace(TWO_PI * 10e3)
        rng = np.random.default_rng(0)
        with pytest.raises(Exception):
            per_sample_phase_shot(trace, probe, noise, rng, KAPPA_OUT,
                                  signal_window=(0, 20e-6),
                                  reference_window=(10e-6, 39e-6))


class TestNoiseModel:
    """The per-sample simulator, the batch sampler and :func:`phase_change_sigma`
    are one phase-noise model: their sigma_dphi agree at the operating point
    (500 atoms on one effective transition, n_c = 5.9e4) and on a strongly
    pulled resonance."""

    @staticmethod
    def assert_three_sigmas_agree(chi, probe, noise, seed):
        dt = 5e-8
        trace = _steady_trace(chi, dt=dt)
        # windows of exactly tau_i / dt and alpha tau_i / dt samples
        signal = (-dt / 2, probe.tau_i - dt / 2)
        reference = (15e-6 - dt / 2, 15e-6 + probe.alpha * probe.tau_i - dt / 2)
        rng = np.random.default_rng(seed)
        per_sample = np.std([
            per_sample_phase_shot(trace, probe, noise, rng, KAPPA_OUT,
                                  signal_window=signal, reference_window=reference)
            for _ in range(5000)
        ], ddof=1)
        dphi = core.cavity_phase(chi, KAPPA)
        batch = np.std(simulate_phase_shot_batch(
            np.full(200_000, dphi), probe, noise, np.random.default_rng(seed + 1), KAPPA_OUT),
            ddof=1)
        closed = np.degrees(phase_change_sigma(probe.n_c, dphi, KAPPA_OUT, probe, noise))
        assert per_sample == pytest.approx(closed, rel=0.03)
        assert batch == pytest.approx(closed, rel=0.03)
        assert per_sample == pytest.approx(batch, rel=0.03)

    def test_three_sigmas_agree_at_operating_point(self, probe, noise):
        g, n_crit = TWO_PI * 12.9e3, 4.4e4
        chi = 500 * g / (2.0 * np.sqrt(n_crit)) / core.power_reduction(probe.n_c, n_crit)
        self.assert_three_sigmas_agree(chi, probe, noise, 11)

    def test_three_sigmas_agree_on_a_pulled_resonance(self, probe, noise):
        # 2 chi / kappa = 1, a phase of -45 deg: the transmitted amplitude
        # cos(phase) doubles the signal window's variance, 1/(cos^2(phase) R)
        # = 2/R, where the operating point (2 chi / kappa <= 0.1) moves it
        # by at most 1 %
        self.assert_three_sigmas_agree(KAPPA / 2, probe, noise, 13)


class TestBatchShots:
    @pytest.mark.parametrize("r_target", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_std_matches_analytic(self, r_target):
        n_c = r_target * 23 / (KAPPA_OUT * 6.2e-6)
        probe = ProbeConfig(n_c=n_c, tau_i=6.2e-6, alpha=4.0)
        noise = NoiseChain(n_noise=23.0)
        chi = KAPPA / 20
        dphi_true = -np.arctan(2 * chi / KAPPA)
        rng = np.random.default_rng(3)
        out = simulate_phase_shot_batch(np.full(200_000, dphi_true), probe, noise, rng,
                                        KAPPA_OUT)
        expect = np.degrees(phase_change_sigma(n_c, dphi_true, KAPPA_OUT, probe, noise))
        assert np.std(out, ddof=1) == pytest.approx(expect, rel=0.03)

    def test_noise_scaling_sqrt2(self):
        probe = ProbeConfig(n_c=5.9e4, tau_i=6.2e-6, alpha=4.0)
        stds = []
        for nn in (23.0, 46.0):
            rng = np.random.default_rng(4)
            out = simulate_phase_shot_batch(
                np.zeros(200_000), probe, NoiseChain(n_noise=nn), rng, KAPPA_OUT
            )
            stds.append(np.std(out, ddof=1))
        assert stds[1] / stds[0] == pytest.approx(np.sqrt(2), rel=0.03)

    @pytest.mark.parametrize("n_c", [0.0, 5 * 23 / (KAPPA_OUT * 6.2e-6)])
    def test_low_snr_rejected(self, n_c):
        # R = 0 and R = 5 break the phase_precision rule R > 10; R = 0 would
        # give inf and NaN shots
        probe = ProbeConfig(n_c=n_c, tau_i=6.2e-6, alpha=4.0)
        with pytest.raises(SnrValidityError):
            simulate_phase_shot_batch(np.zeros(4), probe, NoiseChain(n_noise=23.0),
                                      np.random.default_rng(0), KAPPA_OUT)

    def test_floor_adds_in_quadrature(self):
        probe = ProbeConfig(n_c=5.9e4, tau_i=6.2e-6, alpha=4.0)
        floor = 0.02
        rng = np.random.default_rng(5)
        out = simulate_phase_shot_batch(
            np.zeros(300_000), probe,
            NoiseChain(n_noise=23.0, digitizer_phase_floor=floor), rng, KAPPA_OUT,
        )
        r = snr(probe.n_c, KAPPA_OUT, probe.tau_i, 23.0)
        expect = np.degrees(np.sqrt((1 + 1 / probe.alpha) / r + floor ** 2))
        assert np.std(out, ddof=1) == pytest.approx(expect, rel=0.02)


class TestMcpSignal:
    def test_empty_cloud(self, mcp):
        rng = np.random.default_rng(0)
        assert mcp_signal(0, 0, mcp, rng) == (0.0, 0.0)

    def test_expectation_s_cloud(self, mcp):
        rng = np.random.default_rng(6)
        n = 1_000_000
        s1, _ = mcp_signal(np.full(n, 500), np.zeros(n), mcp, rng)
        assert np.mean(s1) / 500 == pytest.approx(2.07e-2, rel=0.002)

    def test_pure_p_ratio(self, mcp):
        rng = np.random.default_rng(7)
        n = 200_000
        s1, s2 = mcp_signal(np.zeros(n), np.full(n, 500), mcp, rng)
        assert np.mean(s2) / np.mean(s1) == pytest.approx(0.222, rel=0.005)

    def test_variance_matches_analytic(self, mcp):
        rng = np.random.default_rng(8)
        n = 100_000
        s1, _ = mcp_signal(np.full(n, 500), np.zeros(n), mcp, rng)
        rel = np.std(s1, ddof=1) / np.mean(s1)
        assert rel == pytest.approx(
            mcp_relative_precision(500, mcp.eta, mcp.sigma_a_rel), rel=0.05
        )

    def test_no_gain_spread_counts_detected_atoms(self, mcp):
        # sigma_a_rel = 0: every detected atom adds exactly s1_atom / eta
        n = 1000
        exact = dataclasses.replace(mcp, sigma_a_rel=0.0)
        s1, s2 = mcp_signal(np.full(n, 500), np.zeros(n), exact, np.random.default_rng(10))
        detected = np.random.default_rng(10).binomial(500, mcp.eta, n)
        assert s1.tobytes() == (mcp.s1_atom / mcp.eta * (detected + mcp.alpha_p * 0.0)).tobytes()
        assert np.array_equal(s2, mcp.s1_atom / mcp.eta * (mcp.beta_s * detected + 0.0))

    def test_variance_linear_in_n(self, mcp):
        rng = np.random.default_rng(9)
        n = 60_000
        v = []
        for atoms in (250, 1000):
            s1, _ = mcp_signal(np.full(n, atoms), np.zeros(n), mcp, rng)
            v.append(np.var(s1, ddof=1))
        assert v[1] / v[0] == pytest.approx(4.0, rel=0.1)


class TestPFraction:
    def test_endpoints(self, mcp):
        p0, _ = p_fraction_from_ratio(mcp.beta_s, mcp)
        p1, _ = p_fraction_from_ratio(mcp.beta_p, mcp)
        assert p0 == 0.0
        assert p1 == 1.0

    def test_out_of_band_clipped_and_flagged(self, mcp):
        p, clipped = p_fraction_from_ratio(0.9, mcp)
        assert clipped
        assert p == 0.0
        p, clipped = p_fraction_from_ratio(0.1, mcp)
        assert clipped
        assert p == 1.0

    @given(st.floats(0.223, 0.438), st.floats(1e-4, 0.2))
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing(self, s_r, ds):
        mcp = __import__("rydcav").McpModel()
        hi = min(s_r + ds, 0.4389)
        p1, _ = p_fraction_from_ratio(s_r, mcp)
        p2, _ = p_fraction_from_ratio(hi, mcp)
        assert p2 <= p1 + 1e-12

    def test_forward_round_trip(self, mcp):
        # prepare P_p = 0.5, decay both states to the detection time, then invert
        rng = np.random.default_rng(10)
        n = 200_000
        n_prep = 5000
        surv_s = np.exp(-mcp.dt_md / TAU_S)
        surv_p = np.exp(-mcp.dt_md / TAU_P)
        n_s = rng.binomial(n_prep, surv_s, n)
        n_p = rng.binomial(n_prep, surv_p, n)
        s1, s2 = mcp_signal(n_s, n_p, mcp, rng)
        p, _ = p_fraction_from_ratio(np.mean(s2) / np.mean(s1), mcp)
        assert p == pytest.approx(0.5, abs=0.01)

    def test_round_trip_identity_in_expectation(self, mcp):
        for p_true in (0.1, 0.3, 0.5, 0.7, 0.9):
            surv_s = np.exp(-mcp.dt_md / TAU_S)
            surv_p = np.exp(-mcp.dt_md / TAU_P)
            n_s = (1 - p_true) * surv_s * 1e4
            n_p = p_true * surv_p * 1e4
            s1 = n_s + mcp.alpha_p * n_p
            s2 = mcp.beta_s * n_s + mcp.alpha_p * mcp.beta_p * n_p
            p, clipped = p_fraction_from_ratio(s2 / s1, mcp)
            assert not clipped
            assert p == pytest.approx(p_true, abs=1e-9)


class TestMcpRelativePrecision:
    def test_perfect_detector(self):
        assert mcp_relative_precision(500, 1.0, 0.0) == 0.0

    def test_reference_value(self):
        assert mcp_relative_precision(500, 0.55, 0.38) == pytest.approx(0.0465, rel=2e-3)

    def test_scaling(self):
        assert mcp_relative_precision(2000, 0.55, 0.38) == pytest.approx(
            mcp_relative_precision(500, 0.55, 0.38) / 2
        )
