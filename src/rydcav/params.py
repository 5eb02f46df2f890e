"""Parameter containers shared by the simulation and estimation layers.

All rates and (angular) frequencies are stored in rad/s.  Configuration
files use cyclic frequencies in Hz; the conversion happens once in
:mod:`rydcav.configio` when a config is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact in SI
TAU_S = 57.2e-6  # s, radiative lifetime of the Rydberg s state
TAU_P = 102.6e-6  # s, radiative lifetime of the Rydberg p states


class ParameterError(ValueError):
    """Raised when a parameter set violates its invariants."""


class DispersiveValidityError(ValueError):
    """Raised when detunings are too small for the second-order expansion."""


@dataclass
class CavitySpec:
    """Cavity geometry and rates.

    ``mode_correction`` is a dimensionless factor applied to g**2; it absorbs
    the deviation of the real field distribution from the analytic
    rectangular-cavity mode (about -1% in the reference setup).
    ``width_x`` is the transverse mode extent (single antinode); it only
    enters the extended-cloud averages.
    """

    omega_c: float
    kappa: float
    kappa_out: float
    length_z: float
    g_max: float
    mode_antinodes: int = 1
    mode_correction: float = 1.0
    width_x: float | None = None

    def __post_init__(self):
        if not (self.kappa >= self.kappa_out > 0):
            raise ParameterError(
                "kappa must satisfy kappa >= kappa_out > 0, got "
                f"kappa={self.kappa}, kappa_out={self.kappa_out}"
            )
        if self.g_max <= 0:
            raise ParameterError(f"g_max must be positive, got {self.g_max}")
        if not (0.5 < self.mode_correction <= 1.5):
            raise ParameterError(
                f"mode_correction must lie in (0.5, 1.5], got {self.mode_correction}"
            )
        if self.length_z <= 0:
            raise ParameterError(f"length_z must be positive, got {self.length_z}")
        if self.mode_antinodes < 1:
            raise ParameterError("mode_antinodes must be a positive integer")
        if self.width_x is None:
            # default to a half wavelength at the cavity frequency
            self.width_x = np.pi * SPEED_OF_LIGHT / self.omega_c


@dataclass
class EnsembleState:
    """Atom number, populations and cloud geometry of the Rydberg ensemble.

    Populations are fractions at the cavity-center time; radiative decay
    during the transit is applied per state (:data:`TAU_S` for s,
    :data:`TAU_P` for all p sublevels).
    """

    n_atoms: float
    p_s: float = 1.0
    p_p_plus: float = 0.0
    p_p_minus: float = 0.0
    p_p_zero: float = 0.0
    sigma_z: float = 0.0
    sigma_x: float = 0.0
    velocity: float = 950.0
    entry_time: float = 0.0

    def __post_init__(self):
        fr = (self.p_s, self.p_p_plus, self.p_p_minus, self.p_p_zero)
        if any(f < 0 or f > 1 for f in fr):
            raise ParameterError(f"populations must lie in [0, 1], got {fr}")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ParameterError(f"populations must sum to 1, got {sum(fr)}")
        if self.n_atoms < 0:
            raise ParameterError("n_atoms must be >= 0")
        if self.sigma_z < 0 or self.sigma_x < 0:
            raise ParameterError("cloud sizes must be >= 0")
        if self.velocity <= 0:
            raise ParameterError("velocity must be positive")


@dataclass
class TransitionSet:
    """Detunings of the s -> p,+1 and s -> p,-1 transitions from the
    cavity, in rad/s; fixed along the transit."""

    delta_plus: float
    delta_minus: float


@dataclass
class ProbeConfig:
    """Microwave probe settings and integration windows."""

    delta_m: float = 0.0
    n_c: float = 5.9e4
    tau_i: float = 6.2e-6
    alpha: float = 4.0

    def __post_init__(self):
        if self.n_c < 0:
            raise ParameterError("n_c must be >= 0")
        if self.tau_i <= 0:
            raise ParameterError("tau_i must be positive")
        if self.alpha <= 0:
            raise ParameterError("alpha must be positive")


@dataclass
class NoiseChain:
    """Heterodyne detection noise parameters.

    ``digitizer_phase_floor`` is an additive phase noise (std, radians)
    independent of probe power; it models the saturation of the phase
    precision at large photon number.
    """

    n_noise: float = 23.0
    digitizer_phase_floor: float = 0.0

    def __post_init__(self):
        if self.n_noise <= 0:
            raise ParameterError("n_noise must be positive")
        if self.digitizer_phase_floor < 0:
            raise ParameterError("digitizer_phase_floor must be >= 0")


@dataclass
class McpModel:
    """Micro-channel-plate ionization detector model."""

    eta: float = 0.55
    sigma_a_rel: float = 0.38
    s1_atom: float = 2.07e-2
    alpha_p: float = 0.888
    beta_s: float = 0.439
    beta_p: float = 0.222
    dt_md: float = 35.5e-6

    def __post_init__(self):
        if not (0 < self.eta <= 1):
            raise ParameterError("eta must lie in (0, 1]")
        if self.sigma_a_rel < 0:
            raise ParameterError("sigma_a_rel must be >= 0")
        if not (0 < self.beta_p < self.beta_s < 1):
            raise ParameterError("window coefficients must satisfy 0 < beta_p < beta_s < 1")
        if not (0 < self.alpha_p <= 1):
            raise ParameterError("alpha_p must lie in (0, 1]")

    @property
    def decay_correction(self) -> float:
        """exp(dt_md * (1/TAU_S - 1/TAU_P)), the s/p decay imbalance."""
        return float(np.exp(self.dt_md * (1.0 / TAU_S - 1.0 / TAU_P)))
