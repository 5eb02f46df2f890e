"""Cavity transmission in the time domain.

The complex transmission follows the input-output response

    A(t) = kappa/2 * int_{-inf}^{t} dt1 exp[(i Delta_m - kappa/2)(t - t1)
                                            - i int_{t1}^{t} chi(t2) dt2]

evaluated by a recursive one-pole update (O(T) per trace, see
:mod:`rydcav.kernels`).  The integral is seeded with the stationary value
for the earliest chi sample, which is the infinite warm-up limit of
holding chi at its first defined value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .kernels import response_filter
from .params import CavitySpec, EnsembleState, TransitionSet


class GridAccuracyError(ValueError):
    """Time grid too coarse for the requested cavity linewidth."""


class WindowConfigError(ValueError):
    """A time window overlaps the atom transit or holds no sample."""


@dataclass
class ShiftTrace:
    """Dispersive shift chi(t) on a uniform time grid."""

    times: np.ndarray
    chi: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.chi = np.asarray(self.chi, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("times must be a 1-d grid with >= 2 samples")
        steps = np.diff(self.times)
        if np.any(steps <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("times must be uniformly spaced")
        if self.chi.shape != self.times.shape:
            raise ValueError("chi must match times in shape")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass
class ComplexTrace:
    """Transmission amplitude and phase on a time grid."""

    times: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.amplitude = np.asarray(self.amplitude, dtype=float)
        self.phase = np.asarray(self.phase, dtype=float)

    @classmethod
    def from_complex(cls, times, values) -> "ComplexTrace":
        values = np.asarray(values)
        return cls(times, np.abs(values), np.angle(values))

    @property
    def values(self) -> np.ndarray:
        return self.amplitude * np.exp(1j * self.phase)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def steady_transmission(chi, delta_m, kappa):
    """Stationary transmission A = 1 / (1 - 2i (Delta_m - chi)/kappa).

    Normalized to 1 at the pulled resonance Delta_m = chi.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    chi_arr = np.asarray(chi, dtype=float)
    out = 1.0 / (1.0 - 2j * (delta_m - chi_arr) / kappa)
    return np.asarray(out) if chi_arr.ndim else complex(out)


def transmission_response(shift: ShiftTrace, delta_m, kappa) -> ComplexTrace:
    """Causal transmission response to a time-dependent dispersive shift.

    For constant chi the output equals :func:`steady_transmission`; a
    pulse-like chi(t) produces a phase extremum delayed by about 2/kappa.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    dt = shift.dt
    if dt > (2.0 / kappa) / 20.0 * (1 + 1e-12):
        raise GridAccuracyError(
            f"dt = {dt:.3g} s exceeds (2/kappa)/20 = {(2.0 / kappa) / 20.0:.3g} s"
        )
    z = 1j * delta_m - kappa / 2.0 - 1j * shift.chi
    b0 = -1.0 / z[0]  # stationary integral for chi held at chi[0]
    b = response_filter(z, dt, b0)
    return ComplexTrace.from_complex(shift.times, (kappa / 2.0) * b)


def _gaussian_mode_sq_average(x, half_width, antinodes, sigma):
    """Gaussian average of sin^2(p pi x / W) over position spread sigma.

    Uses E[cos(a(x + d))] = cos(a x) exp(-a^2 sigma^2 / 2), exact for a
    Gaussian displacement d.
    """
    a = 2.0 * antinodes * np.pi / half_width
    damp = np.exp(-0.5 * (a * sigma) ** 2)
    return 0.5 * (1.0 - np.cos(a * x) * damp)


def fly_through_shift_trace(
    ensemble: EnsembleState,
    cavity: CavitySpec,
    transitions: TransitionSet,
    times,
    transit_decay: bool = True,
    extended_cloud: bool = False,
) -> ShiftTrace:
    """Dispersive-shift trace for a cloud flying through the cavity.

    Populations are referenced to the cavity-center time; with
    ``transit_decay`` each state's atom number decays with its radiative
    lifetime during the transit.  With ``extended_cloud`` the squared
    coupling is replaced by its Gaussian-weighted average over the cloud
    sizes (sigma_z along the beam, sigma_x transverse).  chi is
    :func:`rydcav.core.dispersive_shift`, so every detuning the trace
    samples must satisfy |Delta| > 10 g sqrt(N).
    """
    times = np.asarray(times, dtype=float)
    t_c = times - ensemble.entry_time
    transit_time = cavity.length_z / ensemble.velocity
    inside = (t_c >= 0) & (t_c <= transit_time)

    if ensemble.n_atoms == 0:
        return ShiftTrace(times, np.zeros_like(times))

    z = np.clip(t_c * ensemble.velocity, 0.0, cavity.length_z)
    if extended_cloud:
        gsq = cavity.g_max ** 2 * cavity.mode_correction * _gaussian_mode_sq_average(
            z, cavity.length_z, cavity.mode_antinodes, ensemble.sigma_z
        )
        # transverse factor: atoms centered on the transverse antinode
        ax = np.pi / cavity.width_x
        g = np.sqrt(gsq * 0.5 * (1.0 + np.exp(-2.0 * (ax * ensemble.sigma_x) ** 2)))
    else:
        g = core.coupling(z, cavity)

    decay_s = decay_p = 1.0
    if transit_decay:
        t_cen = ensemble.entry_time + 0.5 * transit_time
        decay_s = np.exp(-(times - t_cen) / ensemble.tau_s)
        decay_p = np.exp(-(times - t_cen) / ensemble.tau_p)
    chi = core.dispersive_shift(ensemble, g, transitions.delta_plus(z),
                                transitions.delta_minus(z), decay_s, decay_p)
    return ShiftTrace(times, np.where(inside, chi, 0.0))


def simulate_flythrough(
    ensemble: EnsembleState,
    cavity: CavitySpec,
    transitions: TransitionSet,
    delta_m: float,
    kappa: float,
    dt: float = None,
    pad: float = 8e-6,
    transit_decay: bool = True,
    extended_cloud: bool = False,
    n_c: float = None,
    n_crit: float = None,
):
    """Full fly-through transmission model.

    Builds the chi(t) trace over the transit (with ``pad`` seconds of
    padding on both sides), optionally dresses it by the power dependence
    chi/sqrt(1 + n_c/n_crit), and integrates the cavity response.
    Returns (ComplexTrace, dphi_deg) where dphi is referenced to the
    empty-cavity phase.
    """
    if dt is None:
        dt = (2.0 / kappa) / 27.0
    transit = cavity.length_z / ensemble.velocity
    times = np.arange(ensemble.entry_time - pad, ensemble.entry_time + transit + pad, dt)
    shift = fly_through_shift_trace(
        ensemble, cavity, transitions, times,
        transit_decay=transit_decay, extended_cloud=extended_cloud,
    )
    if n_c is not None and n_crit is not None:
        shift = ShiftTrace(shift.times, core.power_dependent_shift(shift.chi, n_c, n_crit))
    trace = transmission_response(shift, delta_m, kappa)
    ref = float(np.angle(steady_transmission(0.0, delta_m, kappa)))
    return trace, phase_change(trace, ref)


def window_samples(times, window, name):
    """Mask of the samples of ``times`` inside the closed ``window`` (t0, t1).

    Raises :class:`WindowConfigError`, naming the window, when it holds no sample.
    """
    t0, t1 = window
    sel = (times >= t0) & (times <= t1)
    if not np.any(sel):
        raise WindowConfigError(f"{name} [{t0:.6g}, {t1:.6g}] s contains no samples")
    return sel


def reference_phase(trace: ComplexTrace, window, transit_end=None) -> float:
    """Mean unwrapped phase over a post-transit reference window, radians."""
    t0 = window[0]
    if transit_end is not None and t0 < transit_end:
        raise WindowConfigError(
            f"reference window starts at {t0:.3g} s, before atom exit at "
            f"{transit_end:.3g} s"
        )
    sel = window_samples(trace.times, window, "reference window")
    return float(np.mean(np.unwrap(trace.phase)[sel]))


def phase_change(trace: ComplexTrace, reference: float) -> np.ndarray:
    """Phase change delta_phi(t) = unwrap(phi(t)) - reference, in degrees."""
    return np.degrees(np.unwrap(trace.phase) - reference)
