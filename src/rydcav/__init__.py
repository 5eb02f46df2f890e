"""Dispersive microwave-cavity detection of Rydberg ensembles.

Simulation of the time-domain cavity transmission during an atom-cloud
transit, analytic detection-precision formulas, a destructive ionization
channel, least-squares estimators, scenario runners and a CLI.
"""

__version__ = "1.0.0"

from .core import (
    SingularityError,
    cavity_phase,
    cloud_mode_average,
    coupling,
    critical_photon_number,
    dispersive_shift,
    excited_fraction,
    mode_amplitude,
    power_dependent_shift,
    power_reduction,
    shift_from_phase,
)
from .detection import (
    SnrValidityError,
    atom_number_precision,
    mcp_relative_precision,
    mcp_signal,
    p_fraction_from_ratio,
    phase_change_precision,
    phase_change_sigma,
    phase_precision,
    simulate_phase_shot_batch,
    snr,
)
from .estimation import (
    UnidentifiableError,
    fit_atom_number,
    fit_entry_time,
    fit_power_dependence,
    fit_rabi_calibration,
    fit_spectroscopy,
    init_n_crit_from_half_signal,
    predict_superposition_phase,
    rabi_calibration_model,
    spectroscopy_spectrum,
    spectroscopy_transfer,
)
from .experiments import (
    Scenario,
    TruenessReport,
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
from .fitting import FitResult, RankDeficiencyError, least_squares_fit, multi_start_fit
from .kernels import response_filter
from .params import (
    CavitySpec,
    DispersiveValidityError,
    EnsembleState,
    McpModel,
    NoiseChain,
    ParameterError,
    ProbeConfig,
    TransitionSet,
)
from .transmission import (
    ComplexTrace,
    GridAccuracyError,
    ShiftTrace,
    WindowConfigError,
    fly_through_shift_trace,
    phase_change,
    readout_phase,
    simulate_flythrough,
    steady_transmission,
    transmission_response,
    window_samples,
)

__all__ = [name for name in dir() if not name.startswith("_")]
