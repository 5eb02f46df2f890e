"""JSON scenario configs, CSV/JSON result writers, and run manifests.

Config files state all frequencies in Hz; conversion to angular rates
happens here, once, at the boundary.  Data files are written with 17
significant digits so a re-run with the same config and seed reproduces
them byte-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .experiments import Scenario
from .params import (
    TWO_PI,
    CavitySpec,
    EnsembleState,
    McpModel,
    NoiseChain,
    ProbeConfig,
    TransitionSet,
)

SCENARIO_TYPES = ("flythrough", "sensitivity", "power", "rabi", "campaign", "trueness")


class ConfigError(ValueError):
    """Invalid config field; the message names the offending key path."""


def _get(section, key, path, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return section[key]


def _num(section, key, path, default=None, required=False, positive=False, nonneg=False):
    v = _get(section, key, path, default, required)
    if v is None:
        return None
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not np.isfinite(v):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {v!r}")
    if positive and v <= 0:
        raise ConfigError(f"{path}.{key}: must be > 0, got {v!r}")
    if nonneg and v < 0:
        raise ConfigError(f"{path}.{key}: must be >= 0, got {v!r}")
    return float(v)


def _build_cavity(c):
    return CavitySpec(
        omega_c=TWO_PI * _num(c, "frequency_hz", "cavity", required=True, positive=True),
        kappa=TWO_PI * _num(c, "kappa_hz", "cavity", required=True, positive=True),
        kappa_out=TWO_PI * _num(c, "kappa_out_hz", "cavity", required=True, positive=True),
        kappa_in=TWO_PI * _num(c, "kappa_in_hz", "cavity", default=0.0, nonneg=True),
        length_z=_num(c, "length_z_m", "cavity", required=True, positive=True),
        g_max=TWO_PI * _num(c, "g_max_hz", "cavity", required=True, positive=True),
        mode_antinodes=int(_num(c, "mode_antinodes", "cavity", default=1, positive=True)),
        mode_correction=_num(c, "mode_correction", "cavity", default=1.0, positive=True),
        width_x=_num(c, "width_x_m", "cavity", default=None, positive=True),
    )


def _build_ensemble(e):
    return EnsembleState(
        n_atoms=_num(e, "n_atoms", "ensemble", required=True, nonneg=True),
        p_s=_num(e, "p_s", "ensemble", default=1.0, nonneg=True),
        p_p_plus=_num(e, "p_p_plus", "ensemble", default=0.0, nonneg=True),
        p_p_minus=_num(e, "p_p_minus", "ensemble", default=0.0, nonneg=True),
        p_p_zero=_num(e, "p_p_zero", "ensemble", default=0.0, nonneg=True),
        sigma_z=_num(e, "sigma_z_m", "ensemble", default=0.0, nonneg=True),
        sigma_x=_num(e, "sigma_x_m", "ensemble", default=0.0, nonneg=True),
        velocity=_num(e, "velocity_m_s", "ensemble", default=950.0, positive=True),
        tau_s=_num(e, "tau_s_s", "ensemble", default=57.2e-6, positive=True),
        tau_p=_num(e, "tau_p_s", "ensemble", default=102.6e-6, positive=True),
        entry_time=_num(e, "entry_time_s", "ensemble", default=0.0),
    )


def _build_transitions(t):
    dp = _num(t, "delta_plus_hz", "transitions", required=True)
    dm = _num(t, "delta_minus_hz", "transitions", required=True)
    if dp == 0 or dm == 0:
        raise ConfigError("transitions.delta_plus_hz/delta_minus_hz: must be nonzero")
    return TransitionSet.constant(TWO_PI * dp, TWO_PI * dm)


def _build_probe(p):
    return ProbeConfig(
        delta_m=TWO_PI * _num(p, "delta_m_hz", "probe", default=0.0),
        n_c=_num(p, "n_c", "probe", default=5.9e4, positive=True),
        tau_i=_num(p, "tau_i_s", "probe", default=6.2e-6, positive=True),
        alpha=_num(p, "alpha", "probe", default=4.0, positive=True),
    )


def _build_noise(n):
    return NoiseChain(
        n_noise=_num(n, "n_noise", "noise", default=23.0, positive=True),
        digitizer_phase_floor=_num(n, "digitizer_phase_floor_rad", "noise",
                                   default=0.0, nonneg=True),
    )


def _build_mcp(m):
    return McpModel(
        eta=_num(m, "eta", "mcp", default=0.55, positive=True),
        sigma_a_rel=_num(m, "sigma_a_rel", "mcp", default=0.38, nonneg=True),
        s1_atom=_num(m, "s1_atom_vns", "mcp", default=2.07e-2, positive=True),
        alpha_p=_num(m, "alpha_p", "mcp", default=0.888, positive=True),
        beta_s=_num(m, "beta_s", "mcp", default=0.439, positive=True),
        beta_p=_num(m, "beta_p", "mcp", default=0.222, positive=True),
        dt_md=_num(m, "dt_md_s", "mcp", default=35.5e-6, nonneg=True),
        tau_s=_num(m, "tau_s_s", "mcp", default=57.2e-6, positive=True),
        tau_p=_num(m, "tau_p_s", "mcp", default=102.6e-6, positive=True),
    )


_HZ_FLAGS = ("g_eff_hz", "transition_spacing_hz")


def _build_flags(f):
    flags = dict(f)
    for key in _HZ_FLAGS:
        if key in flags:
            v = _num(flags, key, "scenario.flags", required=True)
            flags[key.removesuffix("_hz")] = TWO_PI * v
            del flags[key]
    return flags


def load_scenario(path) -> Scenario:
    """Load and validate a scenario config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    sc = raw.get("scenario", {})
    stype = _get(sc, "type", "scenario", required=True)
    if stype not in SCENARIO_TYPES:
        raise ConfigError(
            f"scenario.type: {stype!r} not one of {', '.join(SCENARIO_TYPES)}"
        )
    sweep = sc.get("sweep_values", [])
    if not isinstance(sweep, list):
        raise ConfigError("scenario.sweep_values: expected a list")
    try:
        return Scenario(
            name=str(_get(sc, "name", "scenario", default=path.stem)),
            cavity=_build_cavity(raw.get("cavity", {})),
            ensemble=_build_ensemble(raw.get("ensemble", {})),
            transitions=_build_transitions(raw.get("transitions", {})),
            probe=_build_probe(raw.get("probe", {})),
            noise=_build_noise(raw.get("noise", {})),
            mcp=_build_mcp(raw.get("mcp", {})),
            shots=int(_num(sc, "shots", "scenario", default=1, positive=True)),
            sweep_name=_get(sc, "sweep_name", "scenario"),
            sweep_values=[float(v) for v in sweep],
            master_seed=int(_num(sc, "master_seed", "scenario", default=0, nonneg=True)),
            flags=_build_flags(sc.get("flags", {})),
            type=stype,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# writers


def write_csv(path, columns: dict):
    """Write named columns (unit-suffixed headers) at 17 significant digits."""
    path = Path(path)
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[k])) for k in names]
    n = max(a.size for a in arrays)
    arrays = [np.broadcast_to(a, (n,)) for a in arrays]
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for row in zip(*arrays):
            w.writerow([_fmt_cell(v) for v in row])
    return path


def _fmt_cell(v):
    if isinstance(v, (np.floating, float)):
        return format(float(v), ".17g")
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def write_json(path, payload):
    path = Path(path)
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")
    return path


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Provenance record for one CLI run."""

    command: str
    config_path: str
    config_sha256: str
    seed: int
    started: str
    finished: str = ""
    outputs: dict = field(default_factory=dict)  # relative path -> sha256

    @classmethod
    def start(cls, command, config_path, seed) -> "RunManifest":
        return cls(
            command=command,
            config_path=str(config_path),
            config_sha256=_sha256(config_path),
            seed=seed,
            started=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        )

    def add(self, path, base):
        self.outputs[str(Path(path).relative_to(base))] = _sha256(path)

    def write(self, out_dir):
        self.finished = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return write_json(Path(out_dir) / "manifest.json", asdict(self))
