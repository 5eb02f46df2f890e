"""JSON scenario configs, CSV/JSON result writers, and run manifests.

Config files state all frequencies in Hz; conversion to angular rates
happens here, once, at the boundary.  Data files are written with 17
significant digits so a re-run with the same config and seed reproduces
them byte-identically.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .experiments import Flags, Scenario
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


# The config schema: one table per JSON section, one row per key:
# (JSON key, field, kind, bound).  Kinds: "num" a finite number, "hz" a
# frequency in Hz stored as an angular rate (x 2 pi), "int" an integral
# number, "bool", "str", "nums" a list of finite numbers, or a nested
# section given as (builder, table).  A bound is ">0", ">=0", "!=0", a
# tuple of allowed values, or None.  Defaults are those of the builder;
# a field without one is required.
SECTIONS = {
    "cavity": (CavitySpec, (
        ("frequency_hz", "omega_c", "hz", ">0"),
        ("kappa_hz", "kappa", "hz", ">0"),
        ("kappa_out_hz", "kappa_out", "hz", ">0"),
        ("length_z_m", "length_z", "num", ">0"),
        ("g_max_hz", "g_max", "hz", ">0"),
        ("mode_antinodes", "mode_antinodes", "int", ">0"),
        ("mode_correction", "mode_correction", "num", ">0"),
        ("width_x_m", "width_x", "num", ">0"),
    )),
    "ensemble": (EnsembleState, (
        ("n_atoms", "n_atoms", "num", ">=0"),
        ("p_s", "p_s", "num", ">=0"),
        ("p_p_plus", "p_p_plus", "num", ">=0"),
        ("p_p_minus", "p_p_minus", "num", ">=0"),
        ("p_p_zero", "p_p_zero", "num", ">=0"),
        ("sigma_z_m", "sigma_z", "num", ">=0"),
        ("sigma_x_m", "sigma_x", "num", ">=0"),
        ("velocity_m_s", "velocity", "num", ">0"),
        ("entry_time_s", "entry_time", "num", None),
    )),
    "transitions": (TransitionSet, (
        ("delta_plus_hz", "delta_plus", "hz", "!=0"),
        ("delta_minus_hz", "delta_minus", "hz", "!=0"),
    )),
    "probe": (ProbeConfig, (
        ("delta_m_hz", "delta_m", "hz", None),
        ("n_c", "n_c", "num", ">0"),
        ("tau_i_s", "tau_i", "num", ">0"),
        ("alpha", "alpha", "num", ">0"),
    )),
    "noise": (NoiseChain, (
        ("n_noise", "n_noise", "num", ">0"),
        ("digitizer_phase_floor_rad", "digitizer_phase_floor", "num", ">=0"),
    )),
    "mcp": (McpModel, (
        ("eta", "eta", "num", ">0"),
        ("sigma_a_rel", "sigma_a_rel", "num", ">=0"),
        ("s1_atom_vns", "s1_atom", "num", ">0"),
        ("alpha_p", "alpha_p", "num", ">0"),
        ("beta_s", "beta_s", "num", ">0"),
        ("beta_p", "beta_p", "num", ">0"),
        ("dt_md_s", "dt_md", "num", ">=0"),
    )),
}
FLAGS = (
    ("transit_decay", "transit_decay", "bool", None),
    ("systematic_offset", "systematic_offset", "num", None),
    ("g_eff_hz", "g_eff", "hz", ">0"),
    ("n_crit", "n_crit", "num", ">0"),
    ("two_transitions", "two_transitions", "bool", None),
    ("detuning_rel_uncertainty", "detuning_rel_uncertainty", "num", ">=0"),
    ("pointlike_uncertainty", "pointlike_uncertainty", "num", ">=0"),
    ("interaction_spacing_m", "interaction_spacing", "num", ">0"),
)
SCENARIO = (
    ("name", "name", "str", None),
    ("type", "type", "str", SCENARIO_TYPES),
    ("shots", "shots", "int", ">0"),
    ("master_seed", "master_seed", "int", ">=0"),
    ("sweep_values", "sweep_values", "nums", None),
    ("flags", "flags", (Flags, FLAGS), None),
)

_BOUNDS = {">0": lambda v: v > 0, ">=0": lambda v: v >= 0, "!=0": lambda v: v != 0}
_FLOAT_MAX = float(np.finfo(float).max)  # rejects NaN, inf and too large integers


def _value(v, kind, bound, path):
    if isinstance(kind, tuple):
        return _section(v, path, *kind)
    if kind == "nums":
        if not isinstance(v, list):
            raise ConfigError(f"{path}: expected a list of numbers, got {v!r}")
        return [_value(x, "num", bound, f"{path}[{i}]") for i, x in enumerate(v)]
    if kind in ("bool", "str"):
        if not isinstance(v, bool if kind == "bool" else str):
            raise ConfigError(f"{path}: expected a {kind}, got {v!r}")
    elif not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) <= _FLOAT_MAX:
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    elif kind == "int" and v != int(v):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    else:
        v = int(v) if kind == "int" else float(v)
    if isinstance(bound, tuple) and v not in bound:
        raise ConfigError(f"{path}: {v!r} not one of {', '.join(bound)}")
    if isinstance(bound, str) and not _BOUNDS[bound](v):
        raise ConfigError(f"{path}: must be {bound}, got {v!r}")
    return TWO_PI * v if kind == "hz" else v


def _section(raw, path, build, table):
    """Check one JSON object against ``table`` and call ``build`` with its
    converted fields; keys starting with ``_`` are comments."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {raw!r}")
    known = {row[0] for row in table}
    for key in raw:
        if key not in known and not key.startswith("_"):
            raise ConfigError(f"{path}.{key}: unknown key")
    params = inspect.signature(build).parameters
    kw = {}
    for key, fld, kind, bound in table:
        if key in raw:
            kw[fld] = _value(raw[key], kind, bound, f"{path}.{key}")
        elif params[fld].default is inspect.Parameter.empty:
            raise ConfigError(f"{path}.{key}: missing required field")
    try:
        return build(**kw)
    except ValueError as exc:  # the model's own invariants
        raise ConfigError(f"{path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Load and validate a scenario config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for key in raw:
        if key != "scenario" and key not in SECTIONS and not key.startswith("_"):
            raise ConfigError(f"{key}: unknown section")
    parts = {name: _section(raw.get(name, {}), name, *spec) for name, spec in SECTIONS.items()}
    build = partial(Scenario, name=path.stem, **parts)
    scenario = _section(raw.get("scenario", {}), "scenario", build, SCENARIO)
    if scenario.type is None:
        raise ConfigError("scenario.type: missing required field")
    try:
        scenario.require(scenario.type)
    except ValueError as exc:  # it names a field path; give the config key path
        path, _, rest = str(exc).partition(":")
        keys = {f"scenario.flags.{fld}": f"scenario.flags.{key}" for key, fld, *_ in FLAGS}
        raise ConfigError(keys.get(path, path) + ":" + rest) from exc
    return scenario


# ---------------------------------------------------------------------------
# writers


CSV_BLOCK_ROWS = 2048  # rows formatted per call; bounds the writer's memory
CSV_FEW_VALUES = 8  # a block column with at most rows/8 distinct values formats each once


def write_csv(path, columns: dict):
    """Write named columns (unit-suffixed headers); shorter ones broadcast.

    Floats are written at 17 significant digits, ints and bools by ``str``;
    the cells are numbers, so no cell needs CSV quoting.  Columns of any
    other dtype (and ``longdouble``) raise ``TypeError``.  Each block of
    rows is formatted by one ``%`` call; a column with few distinct values
    in the block (told apart by bit pattern, so ``-0.0`` stays apart from
    ``0.0``) has each value formatted once and passed as text.
    """
    path = Path(path)
    arrays = [np.atleast_1d(np.asarray(v)) for v in columns.values()]
    for name, a in zip(columns, arrays):
        if a.dtype.kind not in "biuf" or a.dtype.itemsize > 8:
            raise TypeError(f"write_csv: column {name!r} has dtype {a.dtype}; "
                            "only bool, int and float up to 64 bits are written")
    n = max(a.size for a in arrays)
    arrays = [np.broadcast_to(a, (n,)) for a in arrays]
    m = len(arrays)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(columns)
        for i in range(0, n, CSV_BLOCK_ROWS):
            block = [a[i:i + CSV_BLOCK_ROWS] for a in arrays]
            rows = block[0].size
            cells = [None] * (rows * m)
            fmts = []
            for j, b in enumerate(block):
                fmt = "%.17g" if b.dtype.kind == "f" else "%s"
                bits = b.view(f"u{b.itemsize}")
                ordered = np.sort(bits)
                if (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) * CSV_FEW_VALUES <= rows:
                    keys = np.unique(ordered)
                    text = np.array([fmt % v for v in keys.view(b.dtype).tolist()], dtype=object)
                    cells[j::m] = text[np.searchsorted(keys, bits)].tolist()
                    fmt = "%s"
                else:
                    cells[j::m] = b.tolist()
                fmts.append(fmt)
            # "\r\n" is csv.writer's line terminator
            fh.write((",".join(fmts) + "\r\n") * rows % tuple(cells))
    return path


def _json_default(obj):
    # np.float64 is a float and never gets here; other numpy values do
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, payload):
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    path.write_text(text + "\n")
    return path


def _sha256(path) -> str:
    """SHA-256 of a file, read 256 KiB at a time so that a large output never
    sits in memory whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 18):
            digest.update(block)
    return digest.hexdigest()


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
