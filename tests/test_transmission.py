import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcav import (
    ComplexTrace,
    DispersiveValidityError,
    EnsembleState,
    ShiftTrace,
    fly_through_shift_trace,
    phase_change,
    reference_phase,
    simulate_flythrough,
    steady_transmission,
    transmission_response,
    TransitionSet,
    window_samples,
)
from rydcav.transmission import GridAccuracyError, WindowConfigError

TWO_PI = 2.0 * np.pi
KAPPA = TWO_PI * 236e3


def constant_shift_trace(chi, kappa=KAPPA, n=800, per_tau=27):
    dt = (2.0 / kappa) / per_tau
    times = np.arange(n) * dt
    return ShiftTrace(times, np.full(n, chi))


class TestSteadyTransmission:
    def test_empty_cavity(self):
        a = steady_transmission(0.0, 0.0, KAPPA)
        assert a == pytest.approx(1.0)

    def test_reference_phase_value(self):
        a = steady_transmission(TWO_PI * 10e3, 0.0, KAPPA)
        assert np.angle(a) == pytest.approx(-np.arctan(20.0 / 236.0), rel=1e-12)
        assert np.degrees(np.angle(a)) == pytest.approx(-4.844, abs=2e-3)

    def test_half_linewidth(self):
        assert abs(steady_transmission(0.0, KAPPA / 2, KAPPA)) == pytest.approx(
            1 / np.sqrt(2)
        )

    def test_peak_at_pulled_resonance(self):
        chi = TWO_PI * 30e3
        assert steady_transmission(chi, chi, KAPPA) == pytest.approx(1.0)

    @given(st.floats(-0.5, 0.5), st.floats(-2.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_passive(self, chi_frac, dm_frac):
        a = steady_transmission(chi_frac * KAPPA, dm_frac * KAPPA, KAPPA)
        assert abs(a) <= 1.0 + 1e-9

    def test_phase_odd_amplitude_even_in_chi(self):
        chi = TWO_PI * 20e3
        ap = steady_transmission(chi, 0.0, KAPPA)
        am = steady_transmission(-chi, 0.0, KAPPA)
        assert np.angle(ap) == pytest.approx(-np.angle(am), rel=1e-12)
        assert abs(ap) == pytest.approx(abs(am), rel=1e-12)


class TestTransmissionResponse:
    def test_zero_shift_identity(self):
        shift = constant_shift_trace(0.0)
        out = transmission_response(shift, 0.0, KAPPA)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-10)

    def test_constant_shift_matches_closed_form(self):
        for dm in (0.0, KAPPA / 2, -KAPPA):
            shift = constant_shift_trace(TWO_PI * 10e3)
            out = transmission_response(shift, dm, KAPPA)
            ref = steady_transmission(TWO_PI * 10e3, dm, KAPPA)
            assert np.max(np.abs(out.values - ref) / abs(ref)) < 1e-6

    def test_coarse_grid_rejected(self):
        dt = (2.0 / KAPPA) / 5.0
        times = np.arange(100) * dt
        shift = ShiftTrace(times, np.zeros(100))
        with pytest.raises(GridAccuracyError):
            transmission_response(shift, 0.0, KAPPA)

    def test_causality(self):
        shift = constant_shift_trace(0.0, n=1000)
        chi = shift.chi.copy()
        chi[600:] = TWO_PI * 30e3
        a = transmission_response(ShiftTrace(shift.times, chi), 0.0, KAPPA)
        chi2 = chi.copy()
        chi2[800:] = -TWO_PI * 50e3  # future change
        b = transmission_response(ShiftTrace(shift.times, chi2), 0.0, KAPPA)
        np.testing.assert_array_equal(a.values[:800], b.values[:800])

    def test_grid_convergence(self, cavity, ensemble261, transitions):
        kappa = cavity.kappa
        t1, _ = simulate_flythrough(ensemble261, cavity, transitions, 0.0, kappa,
                                    dt=(2 / kappa) / 200)
        t2, _ = simulate_flythrough(ensemble261, cavity, transitions, 0.0, kappa,
                                    dt=(2 / kappa) / 400)
        p1 = np.unwrap(t1.phase)
        p2 = np.interp(t1.times, t2.times, np.unwrap(t2.phase))
        scale = np.max(np.abs(p1))
        assert np.max(np.abs(p1 - p2)) / scale < 1e-6

    def test_quasi_static_limit(self):
        dt = (2.0 / KAPPA) / 25
        times = np.arange(0, 3000 * (2 / KAPPA), dt)
        slow = 300 * (2 / KAPPA)
        chi = TWO_PI * 10e3 * np.exp(-0.5 * ((times - times.mean()) / slow) ** 2)
        out = transmission_response(ShiftTrace(times, chi), 0.0, KAPPA)
        inst = steady_transmission(chi, 0.0, KAPPA)
        rel = np.abs(out.values[200:] - inst[200:]) / np.abs(inst[200:])
        assert np.max(rel) < 1e-3


class TestFlyThrough:
    def test_zero_atoms_flat(self, cavity, transitions):
        ens = EnsembleState(n_atoms=0)
        times = np.linspace(0, 20e-6, 500)
        shift = fly_through_shift_trace(ens, cavity, transitions, times)
        assert np.all(shift.chi == 0.0)

    def test_delay_on_resonance(self, cavity, ensemble261, transitions):
        kappa = cavity.kappa
        trace, dphi = simulate_flythrough(ensemble261, cavity, transitions, 0.0, kappa,
                                          transit_decay=False)
        t_cen = 0.5 * cavity.length_z / ensemble261.velocity
        i = int(np.argmax(np.abs(dphi)))
        delay = trace.times[i] - t_cen
        assert abs(delay - 2.0 / kappa) < 0.15e-6

    def test_detuned_probe_less_delay_reduced_phase(self, cavity, ensemble261, transitions):
        kappa = cavity.kappa
        t_cen = 0.5 * cavity.length_z / ensemble261.velocity
        delays, mags, damps = [], [], []
        for dm in (0.0, kappa / 2):
            trace, dphi = simulate_flythrough(ensemble261, cavity, transitions, dm, kappa,
                                              transit_decay=False)
            i = int(np.argmax(np.abs(dphi)))
            delays.append(trace.times[i] - t_cen)
            mags.append(abs(dphi[i]))
            a0 = abs(steady_transmission(0.0, dm, kappa))
            damps.append(np.max(np.abs(trace.amplitude - a0)))
        assert delays[1] < delays[0]
        assert mags[1] < mags[0]
        assert damps[1] > 10 * damps[0]

    def test_peak_below_instantaneous(self, cavity, ensemble261, transitions):
        kappa = cavity.kappa
        trace, dphi = simulate_flythrough(ensemble261, cavity, transitions, 0.0, kappa,
                                          transit_decay=False)
        shift = fly_through_shift_trace(ensemble261, cavity, transitions, trace.times,
                                        transit_decay=False)
        inst = np.degrees(np.angle(steady_transmission(shift.chi, 0.0, kappa)))
        assert np.max(np.abs(dphi)) < np.max(np.abs(inst))

    def test_extended_cloud_reduces_peak(self, cavity, ensemble261, transitions):
        times = np.linspace(0, cavity.length_z / ensemble261.velocity, 2001)
        point = fly_through_shift_trace(ensemble261, cavity, transitions, times,
                                        transit_decay=False)
        ext = fly_through_shift_trace(
            dataclasses.replace(ensemble261, sigma_z=0.6e-3, sigma_x=0.3e-3),
            cavity, transitions, times, transit_decay=False, extended_cloud=True,
        )
        reduction = ext.chi.max() / point.chi.max() - 1.0
        assert reduction == pytest.approx(-0.033, abs=0.004)

    def test_detuning_crossing_zero_in_cavity_rejected(self, cavity, ensemble261):
        # both profile samples lie 10 MHz away, but between them the trace
        # samples delta_+ close to 0, where the expansion does not hold
        crossing = TransitionSet(np.array([0.0, cavity.length_z]),
                                 TWO_PI * np.array([-10e6, 10e6]), -TWO_PI * 26e6)
        with pytest.raises(DispersiveValidityError, match="delta_plus"):
            simulate_flythrough(ensemble261, cavity, crossing, 0.0, cavity.kappa)

    def test_constant_detuning_inside_limit_rejected(self, cavity, ensemble261):
        # 10 g sqrt(N) = 2.3 MHz for N = 261
        close = TransitionSet.constant(-TWO_PI * 1e6, -TWO_PI * 26e6)
        with pytest.raises(DispersiveValidityError):
            simulate_flythrough(ensemble261, cavity, close, 0.0, cavity.kappa)

    def test_transit_decay_reduces_late_shift(self, cavity, ensemble261, transitions):
        times = np.linspace(0, cavity.length_z / ensemble261.velocity, 2001)
        with_decay = fly_through_shift_trace(ensemble261, cavity, transitions, times)
        without = fly_through_shift_trace(ensemble261, cavity, transitions, times,
                                          transit_decay=False)
        late = times > 0.75 * times[-1]
        early = times < 0.25 * times[-1]
        assert np.all(with_decay.chi[late] <= without.chi[late])
        assert np.all(with_decay.chi[early][1:-1] >= without.chi[early][1:-1])


class TestPhaseChange:
    def test_no_atoms_zero(self):
        times = np.linspace(0, 10e-6, 200)
        trace = ComplexTrace.from_complex(times, np.ones(200))
        dphi = phase_change(trace, 0.0)
        np.testing.assert_allclose(dphi, 0.0, atol=1e-12)

    def test_small_shift_linear(self):
        chi = TWO_PI * 2e3
        a = steady_transmission(chi, 0.0, KAPPA)
        expected = -np.degrees(2 * chi / KAPPA)
        assert np.degrees(np.angle(a)) == pytest.approx(expected, rel=0.01)

    def test_reference_window_validation(self):
        times = np.linspace(0, 10e-6, 200)
        trace = ComplexTrace.from_complex(times, np.ones(200))
        with pytest.raises(WindowConfigError):
            reference_phase(trace, (2e-6, 4e-6), transit_end=5e-6)
        with pytest.raises(WindowConfigError):
            reference_phase(trace, (11e-6, 12e-6))
        assert reference_phase(trace, (6e-6, 9e-6), transit_end=5e-6) == 0.0

    def test_empty_window_named(self):
        times = np.arange(11) * 1e-6
        assert window_samples(times, (2e-6, 5e-6), "signal window").sum() == 4
        with pytest.raises(WindowConfigError, match=r"t_max window \[2\.1e-06, 2\.2e-06\]"):
            window_samples(times, (2.1e-6, 2.2e-6), "t_max window")
