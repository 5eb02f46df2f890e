"""The public names of ``import rydcav``, which loads each submodule on
first use: the same 75 names, each the object its defining module holds."""

import importlib

import pytest

import rydcav

SUBMODULES = ["core", "detection", "estimation", "experiments", "fitting", "kernels", "params",
              "transmission"]
PUBLIC = [
    "CavitySpec", "ComplexTrace", "DispersiveValidityError", "EnsembleState", "FitResult",
    "GridAccuracyError", "McpModel", "NoiseChain", "ParameterError", "ProbeConfig",
    "RankDeficiencyError", "Scenario", "ShiftTrace", "SingularityError", "SnrValidityError",
    "TransitionSet", "TruenessReport", "UnidentifiableError", "WindowConfigError",
    "atom_number_precision", "cavity_phase", "cloud_mode_average", "core", "coupling",
    "critical_photon_number", "detection", "dispersive_shift", "estimation", "excited_fraction",
    "experiments", "fit_atom_number", "fit_entry_time", "fit_power_dependence",
    "fit_rabi_calibration", "fit_spectroscopy", "fitting", "fly_through_shift_trace",
    "fourth_order_error", "init_n_crit_from_half_signal", "interaction_shift", "kernels",
    "least_squares_fit", "mcp_relative_precision", "mcp_signal", "mode_amplitude",
    "multi_start_fit", "p_fraction_from_ratio", "params", "phase_change",
    "phase_change_precision", "phase_change_sigma", "phase_precision", "pointlike_correction",
    "power_dependent_shift", "power_reduction", "predict_superposition_phase",
    "rabi_calibration_model", "readout_phase", "response_filter", "run_flythrough",
    "run_power_sweep", "run_rabi_scenario", "run_sensitivity_sweep", "run_single_shot_campaign",
    "shift_from_phase", "simulate_flythrough", "simulate_phase_shot_batch", "snr",
    "spectroscopy_spectrum", "spectroscopy_transfer", "steady_transmission", "transmission",
    "transmission_response", "trueness_ledger", "window_samples",
]


def test_all_is_pinned():
    assert rydcav.__all__ == PUBLIC
    assert len(PUBLIC) == 75 and set(SUBMODULES) <= set(PUBLIC)


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
