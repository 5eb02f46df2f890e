import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcav import (
    CavitySpec,
    DispersiveValidityError,
    EnsembleState,
    McpModel,
    NoiseChain,
    ProbeConfig,
    Scenario,
    TransitionSet,
    core,
    detection,
    estimation,
    experiments,
    kernels,
    params,
    steady_transmission,
    transmission,
)
from rydcav.core import SingularityError
from rydcav.params import ParameterError

TWO_PI = 2.0 * np.pi


class TestModeAmplitude:
    # the squared amplitude sin^2(p pi z / L), core.mode_profile
    def test_antinode(self, cavity):
        assert core.mode_profile(cavity.length_z / 2, cavity) == pytest.approx(1.0)

    def test_wall(self, cavity):
        assert core.mode_profile(0.0, cavity) == 0.0
        assert core.mode_profile(cavity.length_z, cavity) == pytest.approx(0.0, abs=1e-24)

    def test_quarter(self, cavity):
        assert core.mode_profile(cavity.length_z / 4, cavity) == pytest.approx(0.5, rel=1e-12)

    def test_outside_rejected(self, cavity):
        with pytest.raises(ValueError):
            core.mode_profile(-1e-3, cavity)
        with pytest.raises(ValueError):
            core.mode_profile(cavity.length_z + 1e-3, cavity)

    def test_scalar_and_empty_accepted(self, cavity):
        assert core.mode_profile(np.float64(0.0), cavity).shape == ()
        assert core.mode_profile(np.empty((0, 3)), cavity).shape == (0, 3)
        with pytest.raises(ValueError, match="^z outside cavity"):
            core.mode_profile(np.nan, cavity)

    def test_mode_sq_lobe_average(self, cavity):
        # sin^2 averages to 1/2 over one lobe
        z = np.linspace(0, cavity.length_z, 200001)
        avg = np.trapezoid(core.mode_profile(z, cavity), z) / cavity.length_z
        assert avg == pytest.approx(0.5, abs=1e-6)

    @given(p=st.integers(1, 3), z_frac=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_libm_sin_squared(self, p, z_frac):
        cav = dataclasses.replace(CAVITY, mode_antinodes=p)
        z = z_frac * cav.length_z
        want = np.sin(p * np.pi * z / cav.length_z) ** 2
        # within the rounding of theta = p pi z / L, which the two forms round apart
        assert abs(core.mode_profile(z, cav) - want) <= 4 * np.spacing(p * np.pi)

    def test_written_into_out(self, cavity):
        z = np.linspace(0, cavity.length_z, 11)
        want = core.mode_profile(z, cavity)
        assert core.mode_profile(z, cavity, out=z) is z
        assert z.tobytes() == want.tobytes()


class TestCoupling:
    # g = g_max sqrt(mode_correction mode_profile), the coupling whose square
    # the population coefficients multiply
    def test_center_value(self, cavity):
        g = cavity.g_max * np.sqrt(core.mode_profile(cavity.length_z / 2, cavity))
        assert g / TWO_PI == pytest.approx(14.3e3)

    def test_wall_zero(self, cavity):
        assert cavity.g_max * np.sqrt(core.mode_profile(0.0, cavity)) == 0.0

    def test_mode_correction(self, cavity):
        cav = dataclasses.replace(cavity, mode_correction=0.99)
        g = cav.g_max * np.sqrt(cav.mode_correction * core.mode_profile(cav.length_z / 2, cav))
        assert g / TWO_PI == pytest.approx(14.22837e3, rel=1e-5)


def _shift(ensemble, g, delta_plus, delta_minus, w_s=1.0, w_p=1.0):
    """chi = g^2 (a_s w_s + a_p w_p) from the population coefficients at g."""
    a_s, a_p = core.population_coefficients(ensemble, g, delta_plus, delta_minus)
    return g ** 2 * (a_s * w_s + a_p * w_p)


class TestDispersiveShift:
    # the dispersive shift chi = g^2 (a_s w_s + a_p w_p) of one coupling g
    def test_reference_value(self, cavity, ensemble261, transitions):
        ens = EnsembleState(n_atoms=1)
        chi = _shift(ens, TWO_PI * 14.3e3, -TWO_PI * 8e6, -TWO_PI * 26e6)
        assert chi / TWO_PI == pytest.approx(33.43, rel=1e-3)

    def test_equal_populations_cancel(self):
        ens = EnsembleState(n_atoms=100, p_s=1 / 3, p_p_plus=1 / 3, p_p_minus=1 / 3)
        chi = _shift(ens, TWO_PI * 14.3e3, -TWO_PI * 8e6, -TWO_PI * 26e6)
        assert chi == pytest.approx(0.0, abs=1e-9)

    def test_pure_p_opposite_sign_single_term(self):
        s = EnsembleState(n_atoms=50, p_s=1.0)
        p = EnsembleState(n_atoms=50, p_s=0.0, p_p_plus=1.0)
        g, dp, dm = TWO_PI * 14.3e3, -TWO_PI * 8e6, -TWO_PI * 26e6
        chi_s = _shift(s, g, dp, dm)
        chi_p = _shift(p, g, dp, dm)
        assert np.sign(chi_p) == -np.sign(chi_s)
        assert chi_p == pytest.approx(g ** 2 * 50 / dp, rel=1e-12)

    def test_pure_p_half_magnitude_equal_detunings(self):
        s = EnsembleState(n_atoms=50, p_s=1.0)
        p = EnsembleState(n_atoms=50, p_s=0.0, p_p_plus=1.0)
        g, d = TWO_PI * 14.3e3, -TWO_PI * 8e6
        assert abs(_shift(p, g, d, d)) == pytest.approx(0.5 * abs(_shift(s, g, d, d)),
                                                         rel=1e-12)

    def test_uncoupled_sublevel_contributes_zero(self):
        a = EnsembleState(n_atoms=50, p_s=0.7)
        # only the s population enters; the m_l = 0 fraction is inert
        g, dp, dm = TWO_PI * 14.3e3, -TWO_PI * 8e6, -TWO_PI * 26e6
        chi_a = _shift(a, g, dp, dm)
        expect = g ** 2 * 50 * (-0.7 / dp - 0.7 / dm)
        assert chi_a == pytest.approx(expect, rel=1e-12)

    def test_zero_detuning_rejected(self):
        ens = EnsembleState(n_atoms=10)
        with pytest.raises(SingularityError, match="^zero detuning in population_coefficients$"):
            core.population_coefficients(ens, TWO_PI * 14.3e3, 0.0, -TWO_PI * 26e6)

    def test_small_detuning_rejected(self):
        ens = EnsembleState(n_atoms=1e4)
        with pytest.raises(DispersiveValidityError):
            core.population_coefficients(ens, TWO_PI * 14.3e3, -TWO_PI * 1e6, -TWO_PI * 26e6)

    def test_decay_weights_scale_each_population(self):
        g, dp, dm = TWO_PI * 14.3e3, -TWO_PI * 8e6, -TWO_PI * 26e6
        chi_s = _shift(EnsembleState(n_atoms=261), g, dp, dm)
        chi_p = _shift(EnsembleState(n_atoms=261, p_s=0.0, p_p_plus=1.0), g, dp, dm)
        mixed = EnsembleState(n_atoms=261, p_s=0.6, p_p_plus=0.4)
        chi = _shift(mixed, g, dp, dm, w_s=0.5, w_p=0.25)
        assert chi == pytest.approx(0.6 * 0.5 * chi_s + 0.4 * 0.25 * chi_p, rel=1e-12)

    @given(
        n=st.floats(1.0, 1e3),
        ps=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_in_n(self, n, ps):
        ens1 = EnsembleState(n_atoms=n, p_s=ps, p_p_plus=1.0 - ps)
        ens2 = EnsembleState(n_atoms=2 * n, p_s=ps, p_p_plus=1.0 - ps)
        g, dp, dm = TWO_PI * 14.3e3, -TWO_PI * 9e6, -TWO_PI * 27e6
        c1 = _shift(ens1, g, dp, dm)
        c2 = _shift(ens2, g, dp, dm)
        assert c2 == pytest.approx(2 * c1, rel=1e-12, abs=1e-15)


class TestPowerDependence:
    # the probe power divides the shift inside the phase map by power_reduction
    KAPPA = TWO_PI * 236e3

    def test_zero_photons(self):
        assert core.power_reduction(0.0, 1e4) == 1.0

    def test_half_signal_point(self):
        assert core.power_reduction(3e4, 1e4) == pytest.approx(2.0)

    def test_sqrt2_point(self):
        assert core.power_reduction(1e4, 1e4) == pytest.approx(np.sqrt(2))

    @given(st.floats(0.0, 1e7), st.floats(1e-6, 1e7))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing(self, n_c, dn):
        chi0 = -TWO_PI * 20e3
        lo = core.cavity_phase(chi0, self.KAPPA, core.power_reduction(n_c, 4.4e4))
        hi = core.cavity_phase(chi0, self.KAPPA, core.power_reduction(n_c + dn, 4.4e4))
        assert 0.0 <= hi <= lo <= core.cavity_phase(chi0, self.KAPPA)


class TestPhaseMap:
    KAPPA = TWO_PI * 236e3

    def test_round_trip(self):
        chi = TWO_PI * np.array([-40e3, -2e3, 0.0, 5e3, 30e3])
        red = core.power_reduction(5.9e4, 4.4e4)
        phase = core.cavity_phase(chi, self.KAPPA, red)
        np.testing.assert_allclose(core.shift_from_phase(phase, self.KAPPA, red), chi,
                                   rtol=1e-12, atol=1e-9)

    def test_is_resonant_transmission_phase(self):
        chi = TWO_PI * np.array([-40e3, 3e3, 60e3])
        np.testing.assert_allclose(core.cavity_phase(chi, self.KAPPA),
                                   np.angle(steady_transmission(chi, 0.0, self.KAPPA)),
                                   rtol=1e-12)

    def test_reduction_equals_reduced_shift(self):
        n_c = np.geomspace(1e3, 1e6, 7)
        chi0 = -TWO_PI * 20e3
        np.testing.assert_allclose(
            core.cavity_phase(chi0, self.KAPPA, core.power_reduction(n_c, 4.4e4)),
            core.cavity_phase(chi0 / np.sqrt(1.0 + n_c / 4.4e4), self.KAPPA),
            rtol=1e-14,
        )

    def test_reduction_rejects_bad_input(self):
        with pytest.raises(ValueError):
            core.power_reduction(-1.0, 4.4e4)
        with pytest.raises(ValueError):
            core.power_reduction(1.0, 0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_reduction_is_the_jaynes_cummings_shift(self, sign):
        # In the one-excitation block {|m-1, e>, |m, g>}, with energies
        # relative to m w_c - w_c/2, H = [[D/2, g sqrt(m)], [g sqrt(m), -D/2]],
        # D = w_a - w_c.  The dressed state that continues |m, g> is the lower
        # eigenvalue for D > 0 and the upper for D < 0; its per-photon cavity
        # shift lam(m + 1) - lam(m), over the ground-state pull chi0 = -g^2/D
        # (a_s of core.population_coefficients), is 1/power_reduction(m + 1/2)
        # with n_crit = D^2/(4 g^2).  At m or m + 1 it is off by up to 5.7e-6.
        g, n_crit = TWO_PI * 14.3e3, 4.4e4
        delta = sign * 2.0 * g * np.sqrt(n_crit)
        m = np.array([1, 2, 10, 100, 1_000, 10_000, 44_000, 100_000, 1_000_000])

        def lam(m):
            root = g * np.sqrt(m)
            blocks = np.array([[[delta / 2, r], [r, -delta / 2]] for r in root])
            return np.linalg.eigvalsh(blocks)[:, 0 if delta > 0 else 1]

        shift = (lam(m + 1) - lam(m)) / (-g ** 2 / delta)
        np.testing.assert_allclose(shift, 1.0 / core.power_reduction(m + 0.5, n_crit),
                                   rtol=1e-9, atol=0)


# each model class with valid arguments for its required fields
CAVITY_KW = dict(omega_c=TWO_PI * 20.5583e9, kappa=TWO_PI * 236e3, kappa_out=TWO_PI * 150e3,
                 length_z=0.014, g_max=TWO_PI * 14.3e3)
TRANSITIONS_KW = dict(delta_plus=-TWO_PI * 8e6, delta_minus=-TWO_PI * 26e6)
CAVITY = CavitySpec(**CAVITY_KW)
MODELS = {
    CavitySpec: CAVITY_KW,
    EnsembleState: dict(n_atoms=261.0),
    TransitionSet: TRANSITIONS_KW,
    ProbeConfig: {},
    NoiseChain: {},
    McpModel: {},
    Scenario: dict(name="s", cavity=CAVITY, ensemble=EnsembleState(n_atoms=261.0),
                   transitions=TransitionSet(**TRANSITIONS_KW), probe=ProbeConfig(),
                   noise=NoiseChain(),
                   mcp=McpModel()),
}
# every bounded field of each model class
CHECKED_FIELDS = [(cls, kwargs, name) for cls, kwargs in MODELS.items()
                  for name in params.bounds(cls)]


def test_every_model_class_states_its_bounds():
    # MODELS holds each class with a bounded field; each bound is stated on
    # its field, by name, and no class keeps a BOUNDS table beside them
    bounded = {obj for module in (params, experiments) for obj in vars(module).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj) and params.bounds(obj)}
    assert bounded == set(MODELS)
    for cls in MODELS:
        assert not hasattr(cls, "BOUNDS")
        assert set(params.bounds(cls).values()) <= set(params._BOUNDS)


@pytest.mark.parametrize("cls, kwargs, name", CHECKED_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in CHECKED_FIELDS])
def test_nan_parameter_rejected(cls, kwargs, name):
    # NaN fails every comparison, so a check written as "x < 0" lets it through
    cls(**kwargs)
    with pytest.raises(ParameterError, match=f"^{name}: must be "):
        cls(**{**kwargs, name: float("nan")})


@pytest.mark.parametrize("call", [
    pytest.param(lambda: core.mode_profile(np.array([0.0, np.nan]), CAVITY),
                 id="mode_profile"),
    pytest.param(lambda: core.power_reduction(np.nan, 4.4e4), id="power_reduction-n_c"),
    pytest.param(lambda: core.power_reduction(1e4, np.nan), id="power_reduction-n_crit"),
    pytest.param(lambda: core.excited_fraction(1e4, np.nan), id="excited_fraction"),
    pytest.param(lambda: core.excited_fraction(np.nan, 4.4e4), id="excited_fraction-n_c"),
    pytest.param(lambda: detection.snr(1e4, np.nan, 6.2e-6, 23.0), id="snr"),
    pytest.param(lambda: detection.phase_precision(np.array([100.0, np.nan])),
                 id="phase_precision"),
    pytest.param(lambda: detection.mcp_signal(np.nan, 0.0, McpModel(),
                                              np.random.default_rng(0)), id="mcp_signal"),
    pytest.param(lambda: estimation.spectroscopy_transfer(1.0, 0.0, np.nan),
                 id="spectroscopy_transfer"),
    pytest.param(lambda: experiments.pointlike_correction(np.nan, 0.0, CAVITY),
                 id="pointlike_correction"),
    pytest.param(lambda: transmission.steady_transmission(0.0, 0.0, np.nan),
                 id="steady_transmission"),
    pytest.param(lambda: transmission.transmission_response(
        transmission.ShiftTrace(np.arange(4) * 1e-8, np.zeros(4)), 0.0, np.nan),
                 id="transmission_response"),
])
def test_nan_argument_rejected(call):
    # each guard is written so that NaN fails it instead of returning NaN
    with pytest.raises(ValueError):
        call()


GRID = np.arange(4) * 1e-8


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: transmission.ShiftTrace(GRID, [0.0, np.nan, 0.0, 0.0]), "chi",
                 id="ShiftTrace"),
    pytest.param(lambda: transmission.transmission_response(
        transmission.ShiftTrace(GRID, np.zeros(4)), np.nan, TWO_PI * 236e3), "delta_m",
                 id="transmission_response"),
    pytest.param(lambda: transmission.steady_transmission(0.0, np.nan, TWO_PI * 236e3),
                 "delta_m", id="steady_transmission"),
    pytest.param(lambda: kernels.response_filter(np.full(4, -1e6 + 0j), np.nan, 1e-6), "dt",
                 id="response_filter"),
    pytest.param(lambda: core.critical_photon_number(np.nan, TWO_PI * 8e6), "g",
                 id="critical_photon_number"),
])
def test_nan_on_trace_path_named(call, name):
    # a NaN that reaches the trace path is named instead of becoming a NaN trace
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("cls, kwargs, message", [
    (Scenario, dict(type="bogus"), "^type: 'bogus' not one of flythrough, "),
    (CavitySpec, dict(mode_antinodes=1.5), r"^mode_antinodes: must be integer >0, got 1\.5"),
    (CavitySpec, dict(mode_antinodes=0.5), r"^mode_antinodes: must be integer >0, got 0\.5"),
    (Scenario, dict(shots=2.5), r"^shots: must be integer >0, got 2\.5"),
    (Scenario, dict(master_seed=1.5),
     r"^master_seed: must be integer in \[0, 2\*\*64\), got 1\.5"),
    (Scenario, dict(master_seed=2**64),  # compared as an integer, not as the float 2.0**64
     r"^master_seed: must be integer in \[0, 2\*\*64\), got 18446744073709551616$"),
    (CavitySpec, dict(kappa=TWO_PI * 100e3), r"^kappa must be >= kappa_out: "),
    (McpModel, dict(beta_p=0.439), r"^need beta_p < beta_s < 1, got 0\.439, 0\.439$"),
])
def test_model_invariant_rejected(cls, kwargs, message):
    with pytest.raises(ParameterError, match=message):
        cls(**{**MODELS[cls], **kwargs})


def test_numpy_integers_and_known_types_accepted():
    for stype in (None, *experiments.SCENARIO_TYPES):
        assert Scenario(**MODELS[Scenario], type=stype).type == stype
    sc = Scenario(**MODELS[Scenario], shots=np.int32(3), master_seed=np.uint64(2**64 - 1))
    assert (sc.shots, sc.master_seed) == (3, 2**64 - 1)
    assert Scenario(**MODELS[Scenario], master_seed=2**64 - 1).master_seed == 2**64 - 1
    assert Scenario(**MODELS[Scenario], shots=4.0, master_seed=np.int64(0)).shots == 4
    assert CavitySpec(**CAVITY_KW, mode_antinodes=np.int64(3)).mode_antinodes == 3


def test_readout_formulas_have_one_home():
    # the phase map, the digitizer floor in quadrature and the Rydberg
    # lifetimes are each written in one module only
    sources = {p.name: p.read_text() for p in Path(core.__file__).parent.glob("*.py")}

    def homes(text):
        return sorted(name for name, src in sources.items() if text in src)

    assert homes("np.arctan(") == homes("-np.tan(phase) * kappa") == ["core.py"]
    # np.tan also builds the response steps, from the half angle, and the
    # mode profile of chi(t); the response path calls no np.sin or np.cos,
    # the chi(t) path (core's profile and cloud average) neither, and np.exp
    # and np.expm1 run on real arrays only
    assert homes("np.tan(") == ["core.py", "kernels.py"]
    path = {"kernels.py", "transmission.py"}
    assert not path & {*homes("np.sin("), *homes("np.cos(")}
    assert "core.py" not in {*homes("np.sin("), *homes("np.cos(")}
    exp_args = {name: re.findall(r"np\.exp(?:m1)?\((.*?)(?:, out=.*)?\)$", sources[name], re.M)
                for name in sorted(path)}
    # the decay weights exp(-(t - t_cen) / TAU) are built in place, in w and w_p
    assert exp_args == {"kernels.py": ["x", "x"], "transmission.py": ["w", "w_p"]}
    assert [sources[name].count("np.exp") for name in sorted(path)] == [2, 2]
    assert homes("digitizer_phase_floor ** 2") == ["detection.py"]
    # the two window sigmas of a phase change, 1/(cos(phase) sqrt(R)) and
    # 1/sqrt(alpha R), are written once, in detection, for the sampler and
    # phase_change_sigma alike: no caller passes the amplitude cos(phase), and
    # no module writes the variance as 1 + (2 chi/kappa)^2
    cos_phase = re.compile(r"np\.cos\((phase|dphi\w*)\)")
    assert sorted(name for name, src in sources.items() if cos_phase.search(src)) == [
        "detection.py"]
    assert sum(len(cos_phase.findall(src)) for src in sources.values()) == 1
    assert homes("np.sqrt(probe.alpha * r)") == ["detection.py"]
    assert homes("/ kappa) ** 2") == []
    # the probe power reduces the phase inside the phase map, cavity_phase(chi0,
    # kappa, power_reduction(n_c, n_crit)); no module divides a shift by it first
    reduced_shift = re.compile(r"/\s*(core\.)?power_reduction\(|\bchi\w*\s*/\s*red\w*\b")
    assert [name for name, src in sources.items() if reduced_shift.search(src)] == []
    assert homes("57.2e-6") == homes("102.6e-6") == ["params.py"]
    # the Gaussian cloud average is closed form, a map of core's one mode
    # profile; the SNR R = n_c kappa_out tau / n_noise is written only in detection.snr
    assert homes("np.trapezoid(") == []
    assert homes("n_noise /") == []
    # the transit duration L/v lives in transmission.transit, and the
    # preparation transfer sin^2(pi r / 2) in estimation.rabi_transfer
    transit = re.compile(r"length_z\s*/\s*[\w.]*velocity")
    assert sorted(name for name, src in sources.items() if transit.search(src)) == [
        "transmission.py"]
    assert sum(src.count("np.sin(np.pi *") for src in sources.values()) == 1
    assert homes("np.sin(np.pi *") == ["estimation.py"]


def test_numpy_values_leave_in_the_writers_only():
    # the library returns what numpy computes; only the configio writers
    # turn numpy values into Python values or text, so no function keeps
    # a scalar-input branch and the complex trace is stored once
    sources = {p.name: p.read_text() for p in Path(core.__file__).parent.glob("*.py")}
    scalar_branch = re.compile(r"\bndim\b(\(\w+\))?(\s*==\s*0)?\s*(else|and|:)")
    assert [name for name, src in sources.items() if scalar_branch.search(src)] == []
    assert [name for name, src in sources.items() if "from_complex" in src] == []
    assert sorted(name for name, src in sources.items() if ".17g" in src) == ["configio.py"]


# Run by test_failing_property_test_is_one_failure under this repository's
# pytest settings: hypothesis reports a failing example through libcst, whose
# import warns of a deprecation in mypy_extensions.
WARNING_PROBE = """
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_property_fails(x):
    assert x < 5


def test_later_test_runs():
    pass


def test_own_deprecation_fails():
    warnings.warn("old", DeprecationWarning)


def test_numpy_warning_fails():
    np.float64(1.0) / 0.0
"""


def test_failing_property_test_is_one_failure(tmp_path):
    # the warnings filter of pyproject.toml lets hypothesis report the failing
    # example and the run go on, and still fails a test on its own warnings
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    (tmp_path / "pyproject.toml").write_text(pyproject.read_text())
    (tmp_path / "test_probe.py").write_text(WARNING_PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_probe.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout[-2000:]
    assert run.stdout.splitlines()[-1].startswith("3 failed, 1 passed"), run.stdout[-2000:]
    for name in ("test_property_fails", "test_own_deprecation_fails",
                 "test_numpy_warning_fails"):
        assert f"FAILED test_probe.py::{name}" in run.stdout


def _quadrature_mode_average(z, cavity, sigma_z, sigma_x, n_quad=2001):
    """Trapezoid Gaussian average of the squared mode profile, +-6 sigma."""

    def gaussian_avg(profile_sq, x0, sigma):
        if sigma == 0:
            return profile_sq(x0)
        x = np.linspace(-6 * sigma, 6 * sigma, n_quad)
        w = np.exp(-0.5 * (x / sigma) ** 2)
        return np.trapezoid(w * profile_sq(x0 + x), x) / np.trapezoid(w, x)

    p, length, wx = cavity.mode_antinodes, cavity.length_z, cavity.width_x
    axial = gaussian_avg(lambda u: np.sin(p * np.pi * u / length) ** 2, z, sigma_z)
    transverse = gaussian_avg(lambda u: np.sin(np.pi * u / wx) ** 2, wx / 2.0, sigma_x)
    return axial * transverse


class TestCloudModeAverage:
    def test_point_cloud_is_mode_squared(self, cavity):
        # bit for bit; sigma = 1e-300 runs the map, whose e = exp(-(a sigma)^2 / 2) is 1
        want = core.mode_profile(np.linspace(0.0, cavity.length_z, 101), cavity)
        for sigma in (0.0, 1e-300):
            z = np.linspace(0.0, cavity.length_z, 101)
            assert core.cloud_mode_average(z, cavity, sigma, sigma).tobytes() == want.tobytes()
            assert core.cloud_mode_average(z, cavity, sigma, sigma, out=z) is z
            assert z.tobytes() == want.tobytes()

    @pytest.mark.parametrize("z", [-1e-3, 0.0141, np.nan])
    def test_outside_rejected(self, cavity, z):
        with pytest.raises(ValueError, match="^z outside cavity"):
            core.cloud_mode_average(z, cavity, 6e-4, 3e-4)

    @given(
        p=st.integers(1, 3),
        z_frac=st.floats(0.0, 1.0),
        # the quadrature oracle underflows for sub-nanometre clouds
        sigma_z=st.just(0.0) | st.floats(1e-9, 3e-3),
        sigma_x=st.just(0.0) | st.floats(1e-9, 2e-3),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_quadrature(self, p, z_frac, sigma_z, sigma_x):
        cav = CavitySpec(omega_c=TWO_PI * 20.5583e9, kappa=TWO_PI * 236e3,
                         kappa_out=TWO_PI * 150e3, length_z=0.014, g_max=TWO_PI * 14.3e3,
                         mode_antinodes=p)
        z = z_frac * cav.length_z
        assert core.cloud_mode_average(z, cav, sigma_z, sigma_x) == pytest.approx(
            _quadrature_mode_average(z, cav, sigma_z, sigma_x), abs=1e-7)


class TestCriticalPhotonNumber:
    def test_delta_2g(self):
        assert core.critical_photon_number(5.0, 10.0) == pytest.approx(1.0)

    def test_formula_value(self):
        n = core.critical_photon_number(TWO_PI * 14.3e3, TWO_PI * 8e6)
        assert n == pytest.approx(7.82e4, rel=2e-3)

    def test_zero_g_rejected(self):
        with pytest.raises(SingularityError):
            core.critical_photon_number(0.0, 1.0)


class TestExcitedFraction:
    def test_half_point(self):
        n_crit = 4.4e4
        assert core.excited_fraction(n_crit - 1, n_crit) == pytest.approx(0.5, rel=1e-12)

    def test_small_limit(self):
        n_crit = 1e8
        assert core.excited_fraction(0.0, n_crit) == pytest.approx(1 / n_crit, rel=1e-6)

    def test_half_point_independent_of_delta(self):
        g = TWO_PI * 14.3e3
        for delta in (TWO_PI * 5e6, TWO_PI * 8e6, TWO_PI * 30e6):
            n_crit = core.critical_photon_number(g, delta)
            assert core.excited_fraction(n_crit - 1, n_crit) == pytest.approx(0.5)

    @given(st.floats(0.0, 1e8), st.floats(1e-3, 1e8))
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_increasing(self, n_c, dn):
        p1 = core.excited_fraction(n_c, 4.4e4)
        p2 = core.excited_fraction(n_c + dn, 4.4e4)
        assert 0.0 < p1 < 1.0
        assert p2 > p1

    @pytest.mark.parametrize("n_c, n_crit", [(-2.0, 1.0), (-1.0, 4.4e4), (-1e-9, 4.4e4)])
    def test_negative_photons_rejected(self, n_c, n_crit):
        # unguarded, n_c = -1 - n_crit would divide by zero and n_c = -1
        # give 0; power_reduction rejects the same photon numbers
        with pytest.raises(ValueError, match="^n_c must be >= 0$"):
            core.excited_fraction(np.array([1e3, n_c]), n_crit)
