import dataclasses
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rydcav import (
    ComplexTrace,
    DispersiveValidityError,
    EnsembleState,
    ShiftTrace,
    fly_through_shift_trace,
    phase_change,
    pointlike_correction,
    simulate_flythrough,
    steady_transmission,
    transmission_response,
    TransitionSet,
    window_samples,
)
from rydcav import core, transmission
from rydcav.configio import load_scenario
from rydcav.params import TAU_P, TAU_S
from rydcav.transmission import GridAccuracyError, WindowConfigError, flythrough_shift

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


class TestShiftTraceGrid:
    @staticmethod
    def times_with_step_jitter(rel):
        dt = (2.0 / KAPPA) / 27
        times = np.arange(100) * dt
        times[50:] += rel * dt  # one step longer by rel
        return times

    def test_jitter_within_tolerance_accepted(self):
        shift = ShiftTrace(self.times_with_step_jitter(5e-10), np.zeros(100))
        assert shift.dt == pytest.approx((2.0 / KAPPA) / 27, rel=1e-12)

    def test_jitter_beyond_tolerance_rejected(self):
        with pytest.raises(ValueError, match="uniformly spaced"):
            ShiftTrace(self.times_with_step_jitter(2e-9), np.zeros(100))

    def test_nan_time_rejected(self):
        times = self.times_with_step_jitter(0.0)
        times[30] = np.nan
        with pytest.raises(ValueError, match="uniformly spaced"):
            ShiftTrace(times, np.zeros(100))


def two_pass_grid_check(times):
    """The grid check of ShiftTrace as two full passes over the steps, the
    oracle of its one-pass check: first the sign of every step, then the
    spread around the first."""
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-d grid with >= 2 samples")
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise ValueError("times must be strictly increasing")
    if not np.max(np.abs(steps - steps[0])) <= 1e-9 * abs(steps[0]):
        raise ValueError("times must be uniformly spaced")


def outcome(fn, *args):
    """The type and message of the exception ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def flythrough_grid(scenario):
    """The fly-through grid: the transit with PAD on both sides."""
    return flythrough_shift(scenario.ensemble, scenario.cavity, scenario.transitions,
                            scenario.kappa).times


def jitter(times, rel, at=300):
    times = times.copy()
    times[at:] += rel * (times[1] - times[0])  # one step longer by rel
    return times


def with_value(times, at, value):
    times = times.copy()
    times[at] = value
    return times


def swapped(times, i, j):
    times = times.copy()
    times[[i, j]] = times[[j, i]]
    return times


# the packaged fly-through scenario, for tests that hypothesis drives
FLY = load_scenario(Path(transmission.__file__).parent / "configs" / "flythrough.json")

# (sigma_z, sigma_x) of a cloud, keyed by whether it has a size: the point
# cloud and the packaged trueness cloud.  The size alone selects the model.
CLOUDS = {False: (0.0, 0.0), True: (0.6e-3, 0.3e-3)}


def with_cloud(ensemble, sized):
    """``ensemble`` with the point cloud or the trueness cloud of CLOUDS."""
    sigma_z, sigma_x = CLOUDS[sized]
    return dataclasses.replace(ensemble, sigma_z=sigma_z, sigma_x=sigma_x)


BAD_GRIDS = {
    "jitter 2e-9": lambda t: jitter(t, 2e-9),
    "jitter 5e-10": lambda t: jitter(t, 5e-10),
    "jitter -2e-9": lambda t: jitter(t, -2e-9),
    "zero step": lambda t: with_value(t, 300, t[299]),
    "zero first step": lambda t: with_value(t, 1, t[0]),
    "every step zero": lambda t: np.full_like(t, t[0]),
    "nan time": lambda t: with_value(t, 300, np.nan),
    "nan first time": lambda t: with_value(t, 0, np.nan),
    "nan last time": lambda t: with_value(t, -1, np.nan),
    "swapped inside the transit": lambda t: swapped(t, 250, 400),
    "swapped across the entry": lambda t: swapped(t, 10, 300),
    "swapped ends": lambda t: swapped(t, 0, -1),
    "reversed": lambda t: t[::-1].copy(),
    "one sample": lambda t: t[:1],
    "two dimensional": lambda t: t.reshape(2, -1) if t.size % 2 == 0 else t[1:].reshape(2, -1),
}


class TestGridCheckOracle:
    @pytest.mark.parametrize("case", BAD_GRIDS)
    def test_same_outcome_as_two_pass_check(self, case):
        # the same exception type and message, or none, from the oracle, from
        # ShiftTrace and from the chi(t) build, whose transit slice must not
        # raise an error of its own on a grid that ShiftTrace rejects
        times = BAD_GRIDS[case](flythrough_grid(FLY))
        want = outcome(two_pass_grid_check, times)
        assert outcome(ShiftTrace, times, np.zeros_like(times)) == want
        for sized in CLOUDS:
            assert outcome(fly_through_shift_trace, with_cloud(FLY.ensemble, sized), FLY.cavity,
                           FLY.transitions, times, True) == want
        assert (want is None) == (case == "jitter 5e-10")

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["jitter", "swap", "nan", "repeat", "shuffle"]),
           rel=st.floats(-3e-9, 3e-9))
    def test_random_bad_grids(self, seed, kind, rel):
        rng = np.random.default_rng(seed)
        times = flythrough_grid(FLY)
        i, j = rng.integers(0, times.size, 2)
        times = {"jitter": lambda: jitter(times, rel, at=max(i, 1)),
                 "swap": lambda: swapped(times, i, j),
                 "nan": lambda: with_value(times, i, np.nan),
                 "repeat": lambda: with_value(times, i, times[j]),
                 "shuffle": lambda: rng.permutation(times)}[kind]()
        want = outcome(two_pass_grid_check, times)
        assert outcome(ShiftTrace, times, np.zeros_like(times)) == want
        assert outcome(fly_through_shift_trace, FLY.ensemble, FLY.cavity, FLY.transitions,
                       times) == want


def whole_trace_response(shift, delta_m, kappa):
    """The one-pole update over every sample of the trace, pads included,
    seeded with the stationary value for chi[0]: the oracle of
    transmission_response.  It reaches the kernel through
    ``transmission.response_filter``, so a test can swap the kernel too."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    dt = shift.dt
    if dt > (2.0 / kappa) / 20.0 * (1 + 1e-12):
        raise GridAccuracyError(f"dt = {dt:.3g} s exceeds (2/kappa)/20")
    z = 1j * delta_m - kappa / 2.0 - 1j * shift.chi
    b = transmission.response_filter(z, dt, -1.0 / z[0])
    return ComplexTrace(shift.times, (kappa / 2.0) * b)


def padded_shift(seed, lead, transit, trail, chi_max, noisy, node, dt):
    """chi = 0 on ``lead`` and ``trail`` samples around a random ``transit``
    of nonzero samples, with its middle sample zeroed when ``node``."""
    rng = np.random.default_rng(seed)
    if noisy:
        inner = rng.standard_normal(transit)
    else:
        t = np.linspace(0.0, 1.0, transit)
        inner = sum(rng.standard_normal()
                    * np.sin(2 * np.pi * ((m + rng.random()) * t + rng.random()))
                    for m in range(4))
    if transit:
        inner = chi_max * inner / np.max(np.abs(inner))
    if node and transit > 2:
        inner[transit // 2] = 0.0
    chi = np.concatenate([np.zeros(lead), inner, np.zeros(trail)])
    return ShiftTrace(np.arange(chi.size) * dt, chi)


class TestTransitOnlyResponse:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lead=st.integers(0, 1500),
           transit=st.integers(0, 2500),
           trail=st.integers(0, 1500),
           log_chi=st.floats(3.0, 7.0),
           noisy=st.booleans(),
           node=st.booleans(),
           dt_frac=st.floats(0.05, 1.0),
           detuning=st.floats(-1.0, 1.0))
    @example(seed=1, lead=0, transit=700, trail=300, log_chi=6.0, noisy=False, node=False,
             dt_frac=1.0, detuning=0.3).via("no leading pad")
    @example(seed=2, lead=0, transit=900, trail=0, log_chi=6.0, noisy=False, node=False,
             dt_frac=1.0, detuning=-0.7).via("no pad")
    @example(seed=3, lead=400, transit=0, trail=400, log_chi=6.0, noisy=False, node=False,
             dt_frac=1.0, detuning=0.5).via("all-zero chi")
    @example(seed=4, lead=300, transit=1, trail=500, log_chi=6.5, noisy=True, node=False,
             dt_frac=1.0, detuning=0.0).via("one nonzero sample")
    @example(seed=5, lead=1, transit=1, trail=1, log_chi=6.5, noisy=True, node=False,
             dt_frac=1.0, detuning=1.0).via("one nonzero sample, one zero each side")
    @example(seed=6, lead=500, transit=801, trail=700, log_chi=7.0, noisy=False, node=True,
             dt_frac=1.0, detuning=-1.0).via("zero sample inside the transit")
    def test_matches_whole_trace_oracle(self, seed, lead, transit, trail, log_chi, noisy,
                                        node, dt_frac, detuning):
        assume(lead + transit + trail >= 2)
        shift = padded_shift(seed, lead, transit, trail, 10**log_chi, noisy, node,
                             dt_frac * (2.0 / KAPPA) / 20.0)
        got = transmission_response(shift, detuning * KAPPA, KAPPA)
        want = whole_trace_response(shift, detuning * KAPPA, KAPPA)
        # relative to the trace's largest |A|: inside a strong transit A can
        # pass near 0, where a per-sample ratio measures only the rounding of
        # the two seeds (up to 1.1e-11 in 1500 draws, against 3.7e-13 here)
        err = np.max(np.abs(got.values - want.values))
        assert err <= 1e-11 * np.max(np.abs(want.values))

    def test_kernel_sees_the_transit_and_one_zero_each_side(self, monkeypatch):
        shift = padded_shift(7, 300, 50, 200, 1e6, False, False, (2.0 / KAPPA) / 27)
        calls = []

        def spy(z, dt, b0, out=None):
            calls.append(len(z))
            return kernel(z, dt, b0, out=out)

        kernel = transmission.response_filter
        monkeypatch.setattr(transmission, "response_filter", spy)
        out = transmission_response(shift, 0.2 * KAPPA, KAPPA)
        assert calls == [52]
        # the empty cavity before the transit is the stationary value exactly
        z0 = 0.2j * KAPPA - KAPPA / 2.0
        assert np.array_equal(out.values[:299], np.full(299, (KAPPA / 2.0) * (-1.0 / z0)))
        transmission_response(padded_shift(7, 300, 0, 200, 1e6, False, False,
                                           (2.0 / KAPPA) / 27), 0.0, KAPPA)
        assert calls == [52]


class TestClosedFormTail:
    # After the exit the response is A_inf + (A_exit - A_inf) exp(k z0 dt),
    # k = 1, 2, ..., with exp(k z0 dt) built from one tan per sample; here
    # against the complex exponential, on the coarsest and the finest grid of
    # the dt-convergence study.  At +-10 kappa the tail's phase k Delta_m dt
    # passes many odd multiples of pi, the poles of tan(k Delta_m dt / 2); the
    # "pole" detuning puts one sample within rounding of pi.
    @pytest.mark.parametrize("halvings", [0, 8], ids=["coarsest", "finest"])
    @pytest.mark.parametrize("detuning", [-10.0, -3.7, -1.0, 0.0, 0.45, 2.3, 10.0, "pole"])
    def test_tail_matches_complex_exp(self, halvings, detuning):
        dt = (2.0 / FLY.kappa) / 27.0 / 2**halvings
        k_pole = 100 * 2**halvings
        delta_m = np.pi / (k_pole * dt) if detuning == "pole" else detuning * FLY.kappa
        assert abs(delta_m) <= 10.0 * FLY.kappa
        shift = flythrough_shift(FLY.ensemble, FLY.cavity, FLY.transitions, FLY.kappa, dt)
        values = transmission_response(shift, delta_m, FLY.kappa).values
        i1 = np.flatnonzero(shift.chi)[-1] + 2  # the first sample after the update
        k = np.arange(1, values.size - i1 + 1)
        if detuning == "pole":
            assert abs(np.tan(k_pole * (0.5 * delta_m * dt))) > 1e12
        elif abs(detuning) == 10.0:
            assert abs(delta_m) * dt * k.size > 30 * np.pi
        z0 = 1j * delta_m - FLY.kappa / 2.0
        a_inf = (FLY.kappa / 2.0) * (-1.0 / z0)
        want = a_inf + (values[i1 - 1] - a_inf) * np.exp(k * (z0 * dt))
        np.testing.assert_allclose(values[i1:], want, rtol=1e-13, atol=0)


def phases_with_signed_zeros(steps, zeros):
    """Phases of a walk with the given steps, wrapped into (-pi, pi], with
    -0.0 at the ``zeros`` positions, as the angles of unit complex values."""
    phi = np.angle(np.exp(1j * np.cumsum(steps)))
    values = np.cos(phi).astype(complex)
    values.imag = np.sin(phi)
    for i in zeros:
        if i < values.size:
            values[i] = complex(1.0, -0.0)
    return values


class TestUnwrappedPhase:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.floats(-4.0, 4.0), max_size=60),
           scale=st.sampled_from([1e-3, 0.3, 1.0]),
           zeros=st.lists(st.integers(0, 60), max_size=6))
    @example(steps=[0.0, 0.0, 0.0], scale=1.0, zeros=[0, 1, 2])
    @example(steps=[3.0, 3.0, 3.0, 3.0], scale=1.0, zeros=[2])
    @example(steps=[np.pi, -np.pi, 0.1], scale=1.0, zeros=[0])
    def test_bit_identical_to_np_unwrap(self, steps, scale, zeros):
        trace = ComplexTrace(np.arange(len(steps)),
                             phases_with_signed_zeros(scale * np.asarray(steps), zeros))
        got = trace.unwrapped_phase
        want = np.unwrap(trace.phase)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_nan_phase_takes_np_unwrap(self):
        trace = ComplexTrace(np.arange(4), np.array([1.0, np.nan, 1j, 1.0]))
        assert np.array_equal(trace.unwrapped_phase, np.unwrap(trace.phase), equal_nan=True)


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


# SHA-256 of the float64 bytes of flythrough_shift(...).chi on the packaged
# flythrough.json (616 samples), per (transit_decay, sized) with the cloud of
# CLOUDS: the chi(t) build is pinned bit for bit, not only through the traces
# it feeds.
CHI_GOLDEN = {
    (False, False): "486c6adcd7c588cf9fd99ed6cdd052b71826383be8ed5fd0e1f7ccb95d5b55e4",
    (False, True): "40184a39485166fcd7b3778ef53e215c158f5e5a2cbc3d2908443fb5a26d4f9b",
    (True, False): "505dfc869233559883cadb754cd1c49a189aa4bd61fa1564054924dcd8d21e18",
    (True, True): "8c9bf10cf1144c55d39700e2645d7333a4d09ab6943ecf043ecc646667fe0e5a",
}

# The same with the reference chi(t) build (reference_shift_trace): the
# bits of CHI_GOLDEN before chi(t) took the tan form.
REFERENCE_CHI_GOLDEN = {
    (False, False): "e7711d632e26ba16c2e7c5db1e2779175dcbde63d7bf0aa7c060f3fff682fa3c",
    (False, True): "8b8721cd231bd3439c4c5db2517da3d1fbb5b2e8c7eaadef0bc825a76087e7dc",
    (True, False): "c3871482b19d45e1b88757606b1ecd78c0ef250a94e4fe08541481bd491bead5",
    (True, True): "885cf06e1c1cb8da6a4852ead61831f3c14753b7fa53fb3434c4971713a4c0d8",
}


def reference_coupling(z, cavity):
    """g(z) = g_max |sin(p pi z / L)| sqrt(mode_correction), from libm sin: the
    point-cloud coupling of the chi(t) build before the tan form."""
    mode = np.abs(np.sin(cavity.mode_antinodes * np.pi * z / cavity.length_z))
    return cavity.g_max * mode * np.sqrt(cavity.mode_correction)


def reference_dispersive_shift(ensemble, g, delta_plus, delta_minus, decay_s, decay_p):
    """chi = g^2 N [(P_p+1 w_p - P_s w_s)/Delta_+1 + (P_p-1 w_p - P_s w_s)/Delta_-1]
    under the array rule |Delta| > 10 max(g) sqrt(N): the dispersive shift as
    the chi(t) build computed it before the tan form."""
    lim = 10.0 * np.max(g) * np.sqrt(max(ensemble.n_atoms, 1.0))
    if min(abs(delta_plus), abs(delta_minus)) <= lim:
        raise DispersiveValidityError(f"reference rule: |Delta| <= {lim}")
    return g ** 2 * ensemble.n_atoms * (
        (ensemble.p_p_plus * decay_p - ensemble.p_s * decay_s) / delta_plus
        + (ensemble.p_p_minus * decay_p - ensemble.p_s * decay_s) / delta_minus)


def mask_shift_trace(ensemble, cavity, transitions, times, transit_decay=True,
                     reference=False):
    """chi(t) built over a boolean mask of the samples inside the transit, with
    a gather and a scatter: the oracle of the slice that
    fly_through_shift_trace takes of the sorted grid, from core's formulas.
    With ``reference`` it takes the reference build instead (reference_coupling
    and reference_dispersive_shift).  A cloud with a size takes the
    extended-cloud model."""
    times = np.asarray(times, dtype=float)
    chi = np.zeros_like(times)
    transit_time, t_cen = transmission.transit(ensemble, cavity)
    t_c = times - ensemble.entry_time
    inside = (t_c >= 0) & (t_c <= transit_time)
    if ensemble.n_atoms == 0 or not inside.any():
        return chi
    z = np.clip(t_c[inside] * ensemble.velocity, 0.0, cavity.length_z)
    if ensemble.sigma_z > 0 or ensemble.sigma_x > 0:
        profile = core.cloud_mode_average(z, cavity, ensemble.sigma_z, ensemble.sigma_x)
        g = cavity.g_max * np.sqrt(cavity.mode_correction * profile)
    else:
        profile, g = core.mode_profile(z, cavity), reference_coupling(z, cavity)
    decay_s = decay_p = 1.0
    if transit_decay:
        decay_s = np.exp(-(times[inside] - t_cen) / TAU_S)
        decay_p = np.exp(-(times[inside] - t_cen) / TAU_P)
    if reference:
        chi[inside] = reference_dispersive_shift(ensemble, g, transitions.delta_plus,
                                                 transitions.delta_minus, decay_s, decay_p)
        return chi
    g2 = cavity.g_max ** 2 * cavity.mode_correction
    a_s, a_p = (g2 * a for a in core.population_coefficients(
        ensemble, cavity.g_max * np.sqrt(cavity.mode_correction * np.max(profile)),
        transitions.delta_plus, transitions.delta_minus))
    chi[inside] = profile * (a_s * decay_s + a_p * decay_p)
    return chi


def reference_shift_trace(ensemble, cavity, transitions, times, transit_decay=True):
    """fly_through_shift_trace with the reference chi(t) build."""
    return ShiftTrace(times, mask_shift_trace(ensemble, cavity, transitions, times,
                                              transit_decay, reference=True))


# A dyadic cavity length and velocity put grid samples exactly at both walls
# and at every antinode, where tan(p pi z / L) is at its pole.
DYADIC_LENGTH, DYADIC_VELOCITY = 2.0 ** -6, 2.0 ** 10


def node_case(p, mode_correction, n_atoms, p_s, split, sized, per_lobe, offset):
    """(ensemble, cavity, times) over a transit of p antinodes, sampled at
    ``per_lobe`` steps per half lobe from one step before the entry to one
    after the exit, shifted by ``offset`` steps (0 hits every node)."""
    cavity = dataclasses.replace(FLY.cavity, length_z=DYADIC_LENGTH, mode_antinodes=p,
                                 mode_correction=mode_correction)
    ens = with_cloud(EnsembleState(n_atoms=n_atoms, p_s=p_s, p_p_plus=(1.0 - p_s) * split,
                                   p_p_minus=(1.0 - p_s) * (1.0 - split),
                                   velocity=DYADIC_VELOCITY, entry_time=0.0), sized)
    dt = DYADIC_LENGTH / DYADIC_VELOCITY / (2 * p * per_lobe)
    return ens, cavity, (np.arange(2 * p * per_lobe + 3) - 1.0 + offset) * dt


NODE_CASE = dict(p=st.integers(1, 3), mode_correction=st.floats(0.5, 1.5, exclude_min=True),
                 n_atoms=st.floats(0.0, 600.0), p_s=st.floats(0.0, 1.0),
                 split=st.floats(0.0, 1.0), sized=st.booleans(),
                 per_lobe=st.sampled_from([1, 2, 4, 16, 64, 256]),
                 offset=st.just(0.0) | st.floats(0.0, 1.0))


class TestTransitSlice:
    @settings(max_examples=150, deadline=None)
    @given(n_atoms=st.floats(0.0, 600.0),
           p_s=st.floats(0.0, 1.0),
           sigma_z=st.floats(0.0, 1e-3),
           sigma_x=st.floats(0.0, 5e-4),
           velocity=st.floats(300.0, 2000.0),
           entry_time=st.floats(-3e-6, 3e-6),
           per_transit=st.floats(0.3, 3000.0),
           n=st.integers(2, 4000),
           start=st.floats(-1.5, 1.2),
           anchor=st.sampled_from(["none", "entry", "exit"]),
           at=st.integers(0, 3999),
           transit_decay=st.booleans())
    @example(n_atoms=261.0, p_s=1.0, sigma_z=0.0, sigma_x=0.0, velocity=950.0,
             entry_time=0.0, per_transit=100.0, n=300, start=0.0, anchor="entry", at=40,
             transit_decay=False).via("a sample exactly at the entry")
    @example(n_atoms=261.0, p_s=0.4, sigma_z=6e-4, sigma_x=3e-4, velocity=950.0,
             entry_time=0.0, per_transit=100.0, n=300, start=0.0, anchor="exit", at=260,
             transit_decay=True).via("a sample exactly at the exit")
    @example(n_atoms=261.0, p_s=1.0, sigma_z=0.0, sigma_x=0.0, velocity=950.0,
             entry_time=1e-6, per_transit=0.5, n=2, start=-1.2, anchor="none", at=0,
             transit_decay=True).via("no sample inside")
    @example(n_atoms=261.0, p_s=1.0, sigma_z=0.0, sigma_x=0.0, velocity=950.0,
             entry_time=0.0, per_transit=50.0, n=40, start=-1.5, anchor="none", at=0,
             transit_decay=False).via("grid before the entry")
    @example(n_atoms=261.0, p_s=1.0, sigma_z=0.0, sigma_x=0.0, velocity=950.0,
             entry_time=0.0, per_transit=50.0, n=40, start=1.01, anchor="none", at=0,
             transit_decay=True).via("grid after the exit")
    def test_chi_bit_identical_to_mask_oracle(self, n_atoms, p_s,
                                              sigma_z, sigma_x, velocity, entry_time,
                                              per_transit, n, start, anchor, at,
                                              transit_decay):
        cavity, transitions = FLY.cavity, FLY.transitions
        ens = EnsembleState(n_atoms=n_atoms, p_s=p_s, p_p_plus=(1.0 - p_s) / 2,
                            p_p_minus=(1.0 - p_s) / 2, sigma_z=sigma_z, sigma_x=sigma_x,
                            velocity=velocity, entry_time=entry_time)
        duration, _ = transmission.transit(ens, cavity)
        dt = duration / per_transit
        if anchor == "none":
            times = entry_time + (start * duration + np.arange(n) * dt)
        else:
            # sample ``at`` is exactly the entry (t - entry = 0) or, with the
            # entry at 0, exactly the exit (t - entry = L/v)
            if anchor == "exit":
                ens = dataclasses.replace(ens, entry_time=0.0)
            edge = ens.entry_time if anchor == "entry" else duration
            times = edge + (np.arange(n) - min(at, n - 1)) * dt
            assert times[min(at, n - 1)] - ens.entry_time == (0.0 if anchor == "entry"
                                                              else duration)
        got = fly_through_shift_trace(ens, cavity, transitions, times,
                                      transit_decay=transit_decay).chi
        want = mask_shift_trace(ens, cavity, transitions, times, transit_decay)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestReferenceBuild:
    # chi(t) from one tan, sin^2 = tau^2 / (1 + tau^2), against the libm-sin
    # coupling and the population sum it replaced

    @settings(max_examples=200, deadline=None)
    @given(transit_decay=st.booleans(), **NODE_CASE)
    def test_chi_matches_reference_build(self, transit_decay, **case):
        ens, cavity, times = node_case(**case)
        got = fly_through_shift_trace(ens, cavity, FLY.transitions, times,
                                      transit_decay=transit_decay).chi
        want = mask_shift_trace(ens, cavity, FLY.transitions, times, transit_decay,
                                reference=True)
        # within 1e-13 of the largest |s term| + |p term|, which is the peak
        # |chi| unless the two cancel (and within rounding of subnormal chi)
        terms = [mask_shift_trace(dataclasses.replace(ens, **pop), cavity, FLY.transitions,
                                  times, transit_decay, reference=True)
                 for pop in (dict(p_p_plus=0.0, p_p_minus=0.0), dict(p_s=0.0))]
        scale = np.max(np.abs(terms[0]) + np.abs(terms[1]))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale + np.finfo(float).smallest_normal
        if case["offset"] == 0.0:
            # on the nodes the profile is 0 to rounding, on the antinodes 1
            lobe, p = case["per_lobe"], case["p"]
            z = (times[1:2 + 2 * p * lobe] - times[1]) * ens.velocity
            profile = core.mode_profile(z, cavity)
            assert z[-1] == cavity.length_z
            assert np.max(profile[::2 * lobe]) <= 1e-30
            assert np.all(profile[lobe::2 * lobe] == 1.0)

    @settings(max_examples=200, deadline=None)
    @given(ulps=st.integers(-3, 3), rel=st.sampled_from([0.0, -1e-9, 1e-9]),
           name=st.sampled_from(["delta_plus", "delta_minus"]), **NODE_CASE)
    def test_validity_rule_is_the_array_rule(self, ulps, rel, name, **case):
        # the build checks g_max sqrt(m max(profile)); the array rule
        # |Delta| > 10 max(g) sqrt(N) on g = g_max sqrt(m profile) raises on
        # exactly the same detunings, including within a few ulp of the
        # limit, and so does the reference for a sized cloud (whose g it is)
        ens, cavity, times = node_case(**case)
        t_c = times - ens.entry_time
        z = np.clip(t_c[(t_c >= 0) & (t_c <= cavity.length_z / ens.velocity)] * ens.velocity,
                    0.0, cavity.length_z)
        profile = (core.cloud_mode_average(z, cavity, ens.sigma_z, ens.sigma_x)
                   if case["sized"] else core.mode_profile(z, cavity))
        g = cavity.g_max * np.sqrt(cavity.mode_correction * profile)
        lim = 10.0 * np.max(g) * np.sqrt(max(ens.n_atoms, 1.0))
        delta = -lim * (1.0 + rel)
        for _ in range(abs(ulps)):
            delta = np.nextafter(delta, -np.inf if ulps > 0 else 0.0)
        transitions = dataclasses.replace(FLY.transitions, **{name: float(delta)})
        assert (abs(delta) <= lim) == (rel < 0 or (rel == 0 and ulps <= 0))
        raises = ens.n_atoms > 0 and abs(delta) <= lim  # no cloud, no rule
        outcomes = []
        for build in (fly_through_shift_trace, reference_shift_trace):
            try:
                build(ens, cavity, transitions, times)
                outcomes.append(None)
            except DispersiveValidityError as exc:
                outcomes.append(str(exc))
        assert (outcomes[0] is not None) == raises
        if raises:
            assert outcomes[0].startswith(f"{name} reaches ")
        if case["sized"] or rel != 0.0:
            assert (outcomes[1] is not None) == raises

    @pytest.mark.parametrize("transit_decay, sized", CHI_GOLDEN)
    def test_traces_within_tolerance_of_reference_build(self, monkeypatch, transit_decay,
                                                         sized):
        ens = with_cloud(FLY.ensemble, sized)
        traces = {}
        for build in ("new", "reference"):
            if build == "reference":
                monkeypatch.setattr(transmission, "fly_through_shift_trace",
                                    reference_shift_trace)
            traces[build] = [simulate_flythrough(ens, FLY.cavity, FLY.transitions,
                                                 frac * FLY.kappa, FLY.kappa,
                                                 transit_decay=transit_decay)[0].values
                             for frac in (-0.5, -0.1, 0.0, 0.37, 0.5)]
        for got, want in zip(traces["new"], traces["reference"]):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestFlyThrough:
    @pytest.mark.parametrize("dt", [0.0, np.nan, -1e-9, np.inf])
    def test_bad_dt_named(self, dt):
        with pytest.raises(ValueError, match="^dt must be finite and positive, got "):
            flythrough_shift(FLY.ensemble, FLY.cavity, FLY.transitions, FLY.kappa, dt)
        with pytest.raises(ValueError, match="^dt must be finite and positive, got "):
            simulate_flythrough(FLY.ensemble, FLY.cavity, FLY.transitions, 0.0, FLY.kappa, dt)

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
        ext = fly_through_shift_trace(with_cloud(ensemble261, True), cavity, transitions,
                                      times, transit_decay=False)
        reduction = ext.chi.max() / point.chi.max() - 1.0
        assert reduction == pytest.approx(-0.033, abs=0.004)
        # the trace and the trueness item share one closed-form cloud average
        assert reduction == pytest.approx(pointlike_correction(0.6e-3, 0.3e-3, cavity),
                                          rel=1e-12)

    def test_ignored_switch_keeps_the_cloud_model(self, config_dir):
        # perfbench/run.py binds extended_cloud=False; the cloud size still
        # selects the model, so the trueness cloud's phase peak sits the
        # ledger's point-like correction below the point cloud's
        sc = load_scenario(config_dir / "flythrough.json")
        peaks = [np.max(np.abs(simulate_flythrough(
            with_cloud(sc.ensemble, sized), sc.cavity, sc.transitions, 0.0, sc.kappa,
            transit_decay=sc.transit_decay, extended_cloud=False)[1])) for sized in CLOUDS]
        assert peaks[1] / peaks[0] - 1.0 == pytest.approx(
            pointlike_correction(*CLOUDS[True], sc.cavity), abs=2e-3)

    def test_power_dressing_is_not_a_flythrough_option(self, cavity, ensemble261,
                                                       transitions):
        # power dependence lives in core.power_reduction; n_c alone used to
        # be accepted and silently ignored
        with pytest.raises(TypeError):
            simulate_flythrough(ensemble261, cavity, transitions, 0.0, cavity.kappa, n_c=5.9e4)

    def test_constant_detuning_inside_limit_rejected(self, cavity, ensemble261):
        # 10 g sqrt(N) = 2.3 MHz for N = 261
        close = TransitionSet(-TWO_PI * 1e6, -TWO_PI * 26e6)
        with pytest.raises(DispersiveValidityError):
            simulate_flythrough(ensemble261, cavity, close, 0.0, cavity.kappa)

    @pytest.mark.parametrize("transit_decay, sized", CHI_GOLDEN)
    def test_packaged_shift_trace_golden_bits(self, config_dir, transit_decay, sized):
        sc = load_scenario(config_dir / "flythrough.json")
        chi = flythrough_shift(with_cloud(sc.ensemble, sized), sc.cavity, sc.transitions,
                               sc.kappa, transit_decay=transit_decay).chi
        assert hashlib.sha256(chi.tobytes()).hexdigest() == CHI_GOLDEN[transit_decay, sized]

    @pytest.mark.parametrize("transit_decay, sized", REFERENCE_CHI_GOLDEN)
    def test_packaged_shift_trace_golden_bits_with_reference_build(self, config_dir,
                                                                    monkeypatch,
                                                                    transit_decay, sized):
        monkeypatch.setattr(transmission, "fly_through_shift_trace", reference_shift_trace)
        sc = load_scenario(config_dir / "flythrough.json")
        chi = flythrough_shift(with_cloud(sc.ensemble, sized), sc.cavity, sc.transitions,
                               sc.kappa, transit_decay=transit_decay).chi
        assert hashlib.sha256(chi.tobytes()).hexdigest() == \
            REFERENCE_CHI_GOLDEN[transit_decay, sized]

    def test_grid_before_entry_has_no_shift(self, cavity, ensemble261, transitions):
        times = ensemble261.entry_time - np.linspace(2e-6, 1e-6, 50)
        trace = fly_through_shift_trace(ensemble261, cavity, transitions, times)
        assert np.array_equal(trace.chi, np.zeros(50))

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
        trace = ComplexTrace(times, np.ones(200))
        dphi = phase_change(trace, 0.0)
        np.testing.assert_allclose(dphi, 0.0, atol=1e-12)

    def test_small_shift_linear(self):
        chi = TWO_PI * 2e3
        a = steady_transmission(chi, 0.0, KAPPA)
        expected = -np.degrees(2 * chi / KAPPA)
        assert np.degrees(np.angle(a)) == pytest.approx(expected, rel=0.01)

    def test_empty_window_named(self):
        times = np.arange(11) * 1e-6
        assert window_samples(times, (2e-6, 5e-6), "signal window").sum() == 4
        with pytest.raises(WindowConfigError, match=r"t_max window \[2\.1e-06, 2\.2e-06\]"):
            window_samples(times, (2.1e-6, 2.2e-6), "t_max window")

    def test_readout_phase_is_the_mean_around_t_max(self, cavity):
        ens = EnsembleState(n_atoms=100)
        t_max = transmission.transit(ens, cavity)[1] + 2.0 / cavity.kappa
        times = t_max + np.arange(-10, 11) * 0.3e-6
        dphi = np.arange(21.0)
        # t_max +- READOUT_WINDOW/2 holds the samples at 0 and +-0.3 us
        assert transmission.readout_phase(times, dphi, ens, cavity, cavity.kappa) == 10.0
        with pytest.raises(WindowConfigError, match="t_max window"):
            transmission.readout_phase(t_max + np.arange(-5.0, 6.0, 2.0) * 1e-6, dphi[:6],
                                       ens, cavity, cavity.kappa)


@pytest.mark.parametrize("transit_decay", [False, True])
@pytest.mark.parametrize("sized", [False, True])
def test_flythrough_peak_memory_within_bound_of_output(transit_decay, sized):
    # At the dt-convergence study's 7th halving (78 759 samples) the traced
    # peak of simulate_flythrough stays under 1.9 times the bytes it returns
    # (values, times and dphi: 32 B per sample).  The chi(t) build peaks at
    # 1.46 times with transit decay (1.02 without), transmission_response at
    # 1.63 and phase_change, after the chi(t) trace is dropped, at 1.25, so
    # one more whole-trace complex temporary (16 B per sample, 0.5 times)
    # crosses the bound in transmission_response and in the chi(t) build
    # with transit decay.
    args = (with_cloud(FLY.ensemble, sized), FLY.cavity, FLY.transitions, 0.3 * FLY.kappa,
            FLY.kappa, (2.0 / FLY.kappa) / 27.0 / 2**7, transit_decay)
    simulate_flythrough(*args)
    tracemalloc.start()
    try:
        trace, dphi = simulate_flythrough(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = trace.values.nbytes + trace.times.nbytes + dphi.nbytes
    assert trace.times.size == 78_759
    assert peak <= 1.9 * out, f"peak {peak / out:.3f} times the output"
