"""Cavity transmission in the time domain.

The complex transmission follows the input-output response

    A(t) = kappa/2 * int_{-inf}^{t} dt1 exp[(i Delta_m - kappa/2)(t - t1)
                                            - i int_{t1}^{t} chi(t2) dt2]

evaluated by a recursive one-pole update (O(T) per trace, see
:mod:`rydcav.kernels`).  The integral is seeded with the stationary value
for the earliest chi sample, which is the infinite warm-up limit of
holding chi at its first defined value.

The update runs over the transit only, from the last zero of chi before its
first nonzero sample to the first zero after its last one, and writes the
integral b = A / (kappa/2) straight into the output.  Outside that span
chi = 0 and z = z0 = i Delta_m - kappa/2, so b is -1/z0 before the transit and
-1/z0 + (b_exit + 1/z0) exp(z0 (t - t_exit)) after it, built in place with
exp(k z0 dt) = 1 + expm1(k z0 dt) from the kernel's tangent half-angle
helper: one real ``tan``, ``exp`` and ``expm1`` per sample and two real
temporaries of the tail's length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .kernels import _expm1_tan, response_filter
from .params import TAU_P, TAU_S, CavitySpec, EnsembleState, TransitionSet

PAD = 8e-6  # s of empty cavity before and after a simulated transit
READOUT_WINDOW = 1e-6  # s, width of the phase readout centred on t_max


class GridAccuracyError(ValueError):
    """Time grid too coarse for the requested cavity linewidth."""


class WindowConfigError(ValueError):
    """A time window holds no sample or overlaps another window."""


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
        s0, tol = steps[0], 1e-9 * steps[0]  # every step within tol of s0 > 0 is positive
        if not (s0 > 0 and np.max(steps) - s0 <= tol and s0 - np.min(steps) <= tol):
            if np.any(steps <= 0):
                raise ValueError("times must be strictly increasing")
            raise ValueError("times must be uniformly spaced")
        if self.chi.shape != self.times.shape:
            raise ValueError("chi must match times in shape")
        if not np.all(np.isfinite(self.chi)):
            raise ValueError("chi must be finite")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass
class ComplexTrace:
    """Complex transmission on a time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)

    @property
    def amplitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.values)

    @property
    def unwrapped_phase(self) -> np.ndarray:
        """``np.unwrap(self.phase)``, bit for bit.

        When no step |dphi| reaches pi, ``np.unwrap`` adds a correction of
        +0.0 to every sample but the first; that is done here without
        computing the correction.
        """
        phase = self.phase
        step = np.diff(phase)
        if not np.max(np.abs(step, out=step), initial=0.0) < np.pi:
            return np.unwrap(phase)
        phase[1:] += 0.0  # -0.0 + 0.0 is +0.0, as in np.unwrap
        return phase

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def transit(ensemble: EnsembleState, cavity: CavitySpec):
    """Transit duration L/v and the cavity-centre time entry + L/(2v), in s."""
    duration = cavity.length_z / ensemble.velocity
    return duration, ensemble.entry_time + duration / 2.0


def steady_transmission(chi, delta_m, kappa):
    """Stationary transmission A = 1 / (1 - 2i (Delta_m - chi)/kappa).

    Normalized to 1 at the pulled resonance Delta_m = chi.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if not np.all(np.isfinite(delta_m)):
        raise ValueError("delta_m must be finite")
    return 1.0 / (1.0 - 2j * (delta_m - np.asarray(chi, dtype=float)) / kappa)


def transmission_response(shift: ShiftTrace, delta_m, kappa) -> ComplexTrace:
    """Causal transmission response to a time-dependent dispersive shift.

    For constant chi the output equals :func:`steady_transmission`; a
    pulse-like chi(t) produces a phase extremum delayed by about 2/kappa.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if not np.isfinite(delta_m):
        raise ValueError("delta_m must be finite")
    dt = shift.dt
    if dt > (2.0 / kappa) / 20.0 * (1 + 1e-12):
        raise GridAccuracyError(
            f"dt = {dt:.3g} s exceeds (2/kappa)/20 = {(2.0 / kappa) / 20.0:.3g} s"
        )
    z0 = 1j * delta_m - kappa / 2.0
    n = shift.chi.size
    nonzero = shift.chi != 0
    first = int(np.argmax(nonzero))
    i0 = n
    if nonzero[first]:
        # the update spans the transit and one zero sample on each side
        last = n - 1 - int(np.argmax(nonzero[::-1]))
        i0, i1 = max(first - 1, 0), min(last + 2, n)
        z = np.full(i1 - i0, complex(-kappa / 2.0))  # z0 - i chi, bit for bit
        np.subtract(delta_m, shift.chi[i0:i1], out=z.imag)
    # b comes after z: before it, b let the heap trim deeper (+33% page faults)
    b = np.empty(n, dtype=complex)
    if i0 < n:
        response_filter(z, dt, -1.0 / z[0], out=b[i0:i1])
        # exp(k z0 dt) = 1 + expm1(k z0 dt) for k = 1, 2, ... after the exit
        tail = b[i1:]
        x = np.arange(1.0, n - i1 + 1)
        np.multiply(x, 0.5 * delta_m * dt, out=tail.imag)  # Im(k z0 dt) / 2
        x *= -kappa / 2.0 * dt  # Re(k z0 dt)
        _expm1_tan(x, tail.imag, tail)
        tail += 1.0
        tail *= b[i1 - 1] + 1.0 / z0
        tail += -1.0 / z0
    b[:i0] = -1.0 / z0  # stationary integral of the empty cavity
    b *= kappa / 2.0
    return ComplexTrace(shift.times, b)


def fly_through_shift_trace(
    ensemble: EnsembleState,
    cavity: CavitySpec,
    transitions: TransitionSet,
    times,
    transit_decay: bool = True,
) -> ShiftTrace:
    """Dispersive-shift trace for a cloud flying through the cavity.

    Populations are referenced to the cavity-center time; with
    ``transit_decay`` each state's atom number decays with its radiative
    lifetime (:data:`~rydcav.params.TAU_S`, :data:`~rydcav.params.TAU_P`)
    during the transit.  Inside the transit chi = g^2 (a_s w_s + a_p w_p)
    (:func:`rydcav.core.population_coefficients`, each |Delta| > 10 g
    sqrt(N)), and 0 elsewhere, also on a grid with none inside.  g^2 is
    g_max^2 mode_correction times :func:`rydcav.core.mode_profile`, or,
    when sigma_z or sigma_x is above 0, :func:`rydcav.core.cloud_mode_average`:
    the cloud size alone selects the model, here and nowhere else.
    """
    times = np.asarray(times, dtype=float)
    transit_time, t_cen = transit(ensemble, cavity)
    # chi's own buffer holds the time since entry t_c, which locates the
    # transit, then z and a point cloud's profile inside it, and 0 outside
    chi = t_c = np.subtract(times, ensemble.entry_time)
    try:
        # on the sorted 1-d grid that ShiftTrace requires, the transit is one slice
        i0, i1 = np.searchsorted(t_c, 0.0, "left"), np.searchsorted(t_c, transit_time, "right")
        if ensemble.n_atoms == 0 or i1 <= i0:
            chi.fill(0.0)
            return ShiftTrace(times, chi)
        # t_c * v can round past length_z at the exit sample
        z = np.clip(np.multiply(t_c[i0:i1], ensemble.velocity, out=chi[i0:i1]), 0.0,
                    cavity.length_z, out=chi[i0:i1])
        chi[:i0] = chi[i1:] = 0.0
        if ensemble.sigma_z > 0 or ensemble.sigma_x > 0:
            profile = core.cloud_mode_average(z, cavity, ensemble.sigma_z, ensemble.sigma_x)
        else:
            profile = core.mode_profile(z, cavity, out=z)
        # chi = profile (A_s w_s + A_p w_p), A = g_max^2 m a, at largest g
        g2 = cavity.g_max ** 2 * cavity.mode_correction
        a_s, a_p = (g2 * a for a in core.population_coefficients(
            ensemble, cavity.g_max * np.sqrt(cavity.mode_correction * np.max(profile)),
            transitions.delta_plus, transitions.delta_minus))
        w = a_s + a_p
        if transit_decay:
            w = a_s * np.exp(-(times[i0:i1] - t_cen) / TAU_S)
            w += a_p * np.exp(-(times[i0:i1] - t_cen) / TAU_P)
        np.multiply(profile, w, out=chi[i0:i1])
    except ValueError:  # the physics may raise on a slice of an unsorted grid,
        ShiftTrace(times, chi)  # which ShiftTrace rejects: its error comes first
        raise
    return ShiftTrace(times, chi)


def flythrough_shift(
    ensemble: EnsembleState,
    cavity: CavitySpec,
    transitions: TransitionSet,
    kappa: float,
    dt: float = None,
    transit_decay: bool = True,
) -> ShiftTrace:
    """The chi(t) trace of :func:`fly_through_shift_trace`, over the transit
    with :data:`PAD` seconds of empty cavity on both sides, at dt (finite and
    positive; (2/kappa)/27 by default).  chi does not depend on the probe
    detuning, so one trace serves every probe of the same cloud.
    """
    dt = (2.0 / kappa) / 27.0 if dt is None else dt
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    duration, _ = transit(ensemble, cavity)
    times = np.arange(ensemble.entry_time - PAD, ensemble.entry_time + duration + PAD, dt)
    return fly_through_shift_trace(ensemble, cavity, transitions, times,
                                   transit_decay=transit_decay)


def simulate_flythrough(
    ensemble: EnsembleState,
    cavity: CavitySpec,
    transitions: TransitionSet,
    delta_m: float,
    kappa: float,
    dt: float = None,
    transit_decay: bool = True,
    extended_cloud=None,
):
    """Full fly-through transmission model: the chi(t) trace of
    :func:`flythrough_shift` (which checks ``dt``) through the cavity response.
    Returns (ComplexTrace, dphi_deg), dphi referenced to the empty-cavity phase.
    ``extended_cloud`` is ignored: the cloud size selects the model; kept for perfbench/run.py.
    """
    # no name holds the chi(t) trace, so it is freed before phase_change (peak memory)
    trace = transmission_response(flythrough_shift(ensemble, cavity, transitions, kappa, dt,
                                                   transit_decay=transit_decay),
                                  delta_m, kappa)
    ref = np.angle(steady_transmission(0.0, delta_m, kappa))
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


def readout_phase(times, dphi_deg, ensemble: EnsembleState, cavity: CavitySpec,
                  kappa: float) -> float:
    """Phase change of a simulated trace read out at t_max = t_cen + 2/kappa:
    the mean of ``dphi_deg`` over the closed window t_max +- READOUT_WINDOW/2.

    The one readout of the sensitivity sweep and the Rabi prediction; the
    single-shot campaign simulates no trace and reads the stationary phase.
    """
    t_max = transit(ensemble, cavity)[1] + 2.0 / kappa
    sel = window_samples(times, (t_max - READOUT_WINDOW / 2.0, t_max + READOUT_WINDOW / 2.0),
                         "t_max window")
    return float(np.mean(dphi_deg[sel]))


def phase_change(trace: ComplexTrace, reference: float) -> np.ndarray:
    """Phase change delta_phi(t) = unwrap(phi(t)) - reference, in degrees."""
    dphi = trace.unwrapped_phase
    return np.degrees(np.subtract(dphi, reference, out=dphi), out=dphi)
