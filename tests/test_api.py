"""The public names of ``import rydcav``, which loads each submodule on
first use: the same 70 names, each the object its defining module holds,
the public functions that no CLI run calls, each with its reason, and the
inputs each public function states."""

import importlib
import inspect
import sys

import pytest

import rydcav
from rydcav import cli

from conftest import CONFIG_DIR

SUBMODULES = ["core", "detection", "estimation", "experiments", "fitting", "kernels", "params",
              "transmission"]
PUBLIC = [
    "CavitySpec", "ComplexTrace", "DispersiveValidityError", "EnsembleState", "FitResult",
    "GridAccuracyError", "McpModel", "NoiseChain", "ParameterError", "ProbeConfig",
    "RankDeficiencyError", "Scenario", "ShiftTrace", "SingularityError", "SnrValidityError",
    "TransitionSet", "TruenessReport", "UnidentifiableError", "WindowConfigError",
    "atom_number_precision", "cavity_phase", "cloud_mode_average", "core",
    "critical_photon_number", "detection", "estimation", "excited_fraction",
    "experiments", "fit_atom_number", "fit_entry_time", "fit_power_dependence",
    "fit_rabi_calibration", "fit_spectroscopy", "fitting", "fly_through_shift_trace",
    "fourth_order_error", "init_n_crit_from_half_signal", "interaction_shift", "kernels",
    "least_squares_fit", "mcp_relative_precision", "mcp_signal", "mode_profile",
    "p_fraction_from_ratio", "params", "phase_change", "phase_change_sigma",
    "phase_precision", "pointlike_correction", "population_coefficients", "power_reduction",
    "predict_superposition_phase",
    "rabi_calibration_model", "readout_phase", "response_filter", "run_flythrough",
    "run_power_sweep", "run_rabi_scenario", "run_sensitivity_sweep", "run_single_shot_campaign",
    "shift_from_phase", "simulate_flythrough", "simulate_phase_shot_batch", "snr",
    "spectroscopy_spectrum", "spectroscopy_transfer", "steady_transmission", "transmission",
    "transmission_response", "trueness_ledger",
]


def test_all_is_pinned():
    assert rydcav.__all__ == PUBLIC
    assert len(PUBLIC) == 70 and set(SUBMODULES) <= set(PUBLIC)


def test_each_name_is_its_defining_modules_object():
    for name in PUBLIC:
        value = getattr(rydcav, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"rydcav.{name}"), name
        else:
            assert value.__module__.startswith("rydcav."), name
            assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from rydcav import *", namespace)
    assert all(namespace[name] is getattr(rydcav, name) for name in PUBLIC)
    assert set(PUBLIC) <= set(dir(rydcav))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="^module 'rydcav' has no attribute 'no_such_name'$"):
        rydcav.no_such_name


# The public functions that no task of cli.TASKS calls on its packaged
# config, and why each stays in the library (ROADMAP item 9).
UNREACHED = {
    "fit_entry_time": "called in process by perfbench's trace_fit workload",
    "run_single_shot_campaign": "called in process by perfbench's campaign workload",
    "fit_rabi_calibration": "waits for a `fit rabi` task (ROADMAP item 8)",
    "rabi_calibration_model": "waits for a `fit rabi` task (ROADMAP item 8)",
    "fit_spectroscopy": "the spectroscopy fit has no task (ROADMAP item 9)",
    "spectroscopy_spectrum": "the spectroscopy fit has no task (ROADMAP item 9)",
    "spectroscopy_transfer": "the spectroscopy fit has no task (ROADMAP item 9)",
    "atom_number_precision": "closed form that the tests compare runs against",
    "mcp_relative_precision": "closed form that the tests compare runs against",
    "critical_photon_number": "closed form that the tests compare runs against",
}


def test_unreached_public_functions_are_listed(tmp_path):
    # every task runs in process under a profiler that records which public
    # functions are entered; a call made outside this thread is missed
    functions = {}
    for name in PUBLIC:
        if inspect.isfunction(getattr(rydcav, name)):
            functions[getattr(rydcav, name).__code__] = name
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in functions:
            called.add(functions[frame.f_code])

    sys.setprofile(profile)
    try:
        for command, scenario_type in cli.TASKS:
            argv = [command, "--config", str(CONFIG_DIR / f"{scenario_type}.json"),
                    "--out", str(tmp_path / command / scenario_type)]
            assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    assert sorted(set(functions.values()) - called) == sorted(UNREACHED)


# The functions that keep an ``extended_cloud`` keyword: perfbench/run.py
# binds it, and each ignores it: one model; a point cloud is sigma = 0.
IGNORED_EXTENDED_CLOUD = {"transmission.simulate_flythrough", "estimation.fit_atom_number",
                          "estimation.fit_entry_time"}


def public_functions():
    """(qualified name, function) of every public function and method that a
    rydcav module defines."""
    for module_name in SUBMODULES + ["cli", "configio"]:
        module = importlib.import_module(f"rydcav.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module_name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, method in vars(obj).items():
                    if inspect.isfunction(method) and not attr.startswith("_"):
                        yield f"{module_name}.{name}.{attr}", method


def test_public_functions_state_their_inputs():
    # no catch-all keyword hides an input, and no switch can contradict the
    # cloud it is given
    catch_alls, switches = [], set()
    for qualname, fn in public_functions():
        parameters = inspect.signature(fn).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            catch_alls.append(qualname)
        if "extended_cloud" in parameters:
            assert parameters["extended_cloud"].default is None, qualname
            switches.add(qualname)
    assert catch_alls == []
    assert switches == IGNORED_EXTENDED_CLOUD
