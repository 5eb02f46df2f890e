"""Dispersive microwave-cavity detection of Rydberg ensembles.

Simulation of the time-domain cavity transmission during an atom-cloud
transit, analytic detection-precision formulas, a destructive ionization
channel, least-squares estimators, scenario runners and a CLI.

Submodules load on first use (PEP 562): ``import rydcav`` runs none of
them, and ``rydcav.fit_atom_number`` imports :mod:`rydcav.estimation` when
it is first read.
"""

__version__ = "1.0.0"

# submodule -> the public names it defines
_EXPORTS = {
    "core": (
        "SingularityError", "cavity_phase", "cloud_mode_average", "critical_photon_number",
        "excited_fraction", "mode_profile", "population_coefficients", "power_reduction",
        "shift_from_phase",
    ),
    "detection": (
        "SnrValidityError", "atom_number_precision", "mcp_relative_precision", "mcp_signal",
        "p_fraction_from_ratio", "phase_change_sigma", "phase_precision",
        "simulate_phase_shot_batch", "snr",
    ),
    "estimation": (
        "UnidentifiableError", "fit_atom_number", "fit_entry_time", "fit_power_dependence",
        "fit_rabi_calibration", "fit_spectroscopy", "init_n_crit_from_half_signal",
        "predict_superposition_phase", "rabi_calibration_model", "spectroscopy_spectrum",
        "spectroscopy_transfer",
    ),
    "experiments": (
        "Scenario", "TruenessReport", "fourth_order_error", "interaction_shift",
        "pointlike_correction", "run_flythrough", "run_power_sweep", "run_rabi_scenario",
        "run_sensitivity_sweep", "run_single_shot_campaign", "trueness_ledger",
    ),
    "fitting": ("FitResult", "RankDeficiencyError", "least_squares_fit"),
    "kernels": ("response_filter",),
    "params": (
        "CavitySpec", "DispersiveValidityError", "EnsembleState", "McpModel", "NoiseChain",
        "ParameterError", "ProbeConfig", "TransitionSet",
    ),
    "transmission": (
        "ComplexTrace", "GridAccuracyError", "ShiftTrace", "WindowConfigError",
        "fly_through_shift_trace", "phase_change", "readout_phase", "simulate_flythrough",
        "steady_transmission", "transmission_response",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path (not importlib.import_module), so that
    # -X importtime lists the submodule; it binds the submodule here
    __import__(f"{__name__}.{home}")
    module = globals()[home]
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
