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


# Bounds by name, for the ``BOUNDS`` (field -> name) of each model class;
# each also asks for a finite value, so NaN and inf fail all of them.
_BOUNDS = {">0": lambda x: x > 0, ">=0": lambda x: x >= 0, "!=0": lambda x: x != 0,
           "finite": lambda x: True, "in (0.5, 1.5]": lambda x: 0.5 < x <= 1.5,
           "in (0, 1]": lambda x: 0 < x <= 1,
           "integer >0": lambda x: x > 0 and x % 1 == 0,
           "integer in [0, 2**64)": lambda x: 0 <= x < 2**64 and x % 1 == 0}


FLOAT_MAX = float(np.finfo(float).max)  # NaN, inf and larger integers fail x <= FLOAT_MAX


def within(value, bound) -> bool:
    """Whether ``value``, a number or a sequence of numbers, is finite and
    meets ``bound`` (a key of ``_BOUNDS``) throughout.  Each number is
    compared as itself: the integer 2**64 - 1, whose nearest float is 2**64,
    is below 2**64."""
    return all(abs(x) <= FLOAT_MAX and _BOUNDS[bound](x) for x in np.ravel(value).tolist())


def check_bounds(self):
    """Raise :class:`ParameterError`, naming the field, unless each field in
    ``BOUNDS`` is :func:`within` its bound or None (an optional setting not given)."""
    for name, bound in self.BOUNDS.items():
        value = getattr(self, name)
        if value is not None and not within(value, bound):
            raise ParameterError(f"{name}: must be {bound}, got {value!r}")


@dataclass
class CavitySpec:
    """Cavity geometry and rates.

    ``mode_correction`` is a dimensionless factor applied to g**2; it absorbs
    the deviation of the real field distribution from the analytic
    rectangular-cavity mode (about -1% in the reference setup).
    """

    omega_c: float
    kappa: float
    kappa_out: float
    length_z: float
    g_max: float
    mode_antinodes: int = 1
    mode_correction: float = 1.0

    BOUNDS = {"omega_c": ">0", "kappa": ">0", "kappa_out": ">0", "length_z": ">0", "g_max": ">0",
              "mode_antinodes": "integer >0", "mode_correction": "in (0.5, 1.5]"}

    def __post_init__(self):
        check_bounds(self)
        if not self.kappa >= self.kappa_out:
            raise ParameterError(f"kappa must be >= kappa_out: {self.kappa} < {self.kappa_out}")

    @property
    def width_x(self) -> float:
        """Transverse mode extent (single antinode), half a wavelength at the
        cavity frequency; it only enters the extended-cloud averages."""
        return np.pi * SPEED_OF_LIGHT / self.omega_c


@dataclass
class EnsembleState:
    """Atom number, populations and cloud geometry of the Rydberg ensemble.

    Populations are fractions at the cavity-center time, summing to at most
    1; the remainder is the uncoupled p, m_l = 0 share, which shifts no
    frequency.  Radiative decay during the transit is applied per state
    (:data:`TAU_S` for s, :data:`TAU_P` for all p sublevels).
    """

    n_atoms: float
    p_s: float = 1.0
    p_p_plus: float = 0.0
    p_p_minus: float = 0.0
    sigma_z: float = 0.0
    sigma_x: float = 0.0
    velocity: float = 950.0
    entry_time: float = 0.0

    BOUNDS = {"n_atoms": ">=0", "p_s": ">=0", "p_p_plus": ">=0", "p_p_minus": ">=0",
              "sigma_z": ">=0", "sigma_x": ">=0", "velocity": ">0", "entry_time": "finite"}

    def __post_init__(self):
        check_bounds(self)
        total = self.p_s + self.p_p_plus + self.p_p_minus
        if total > 1.0 + 1e-9:
            raise ParameterError(f"populations must sum to at most 1, got {total}")


@dataclass
class TransitionSet:
    """Detunings of the s -> p,+1 and s -> p,-1 transitions from the
    cavity, in rad/s; fixed along the transit."""

    delta_plus: float
    delta_minus: float

    BOUNDS = {"delta_plus": "!=0", "delta_minus": "!=0"}
    __post_init__ = check_bounds


@dataclass
class ProbeConfig:
    """Microwave probe settings and integration windows."""

    delta_m: float = 0.0
    n_c: float = 5.9e4  # 0 is valid, but fails the SNR rule of every run that reads it
    tau_i: float = 6.2e-6
    alpha: float = 4.0

    BOUNDS = {"delta_m": "finite", "n_c": ">=0", "tau_i": ">0", "alpha": ">0"}
    __post_init__ = check_bounds


@dataclass
class NoiseChain:
    """Heterodyne detection noise parameters: ``n_noise`` in the convention that
    :func:`rydcav.detection.snr` states; ``digitizer_phase_floor`` is an additive phase
    noise (std, radians) independent of probe power, which models the saturation of
    the phase precision at large photon number.
    """

    n_noise: float = 23.0
    digitizer_phase_floor: float = 0.0

    BOUNDS = {"n_noise": ">0", "digitizer_phase_floor": ">=0"}
    __post_init__ = check_bounds


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

    BOUNDS = {"eta": "in (0, 1]", "sigma_a_rel": ">=0", "s1_atom": ">0",
              "alpha_p": "in (0, 1]", "beta_s": ">0", "beta_p": ">0", "dt_md": ">=0"}

    def __post_init__(self):
        check_bounds(self)
        if not self.beta_p < self.beta_s < 1:
            raise ParameterError(f"need beta_p < beta_s < 1, got {self.beta_p}, {self.beta_s}")

    @property
    def decay_correction(self) -> float:
        """exp(dt_md * (1/TAU_S - 1/TAU_P)), the s/p decay imbalance."""
        return float(np.exp(self.dt_md * (1.0 / TAU_S - 1.0 / TAU_P)))
