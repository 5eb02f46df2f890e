"""JSON scenario configs, CSV/JSON result writers, and run manifests.

Config files state all frequencies in Hz; conversion to angular rates
happens here, once, at the boundary.  Data files are written with 17
significant digits so a re-run with the same config and seed reproduces
them byte-identically.  ``write_csv_blocks``, and ``write_csv``, its case
of one block, write exactly the text of "%.17g" without formatting cell by
cell, through one formatter for every column: integer columns (|v| <=
2**53, exact in float64) are cast to float64, a float with 1e-10 <= |x| <
1e15 gets its 17 correctly rounded digits from integer arithmetic in
``np.uint64``, and the rest (0, inf, NaN and finite values outside that
range) go through "%.17g" once per distinct value in a batch of rows.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .experiments import Scenario
from .params import (
    FLOAT_MAX,
    TWO_PI,
    CavitySpec,
    EnsembleState,
    McpModel,
    NoiseChain,
    ProbeConfig,
    TransitionSet,
    within,
)


class ConfigError(ValueError):
    """Invalid config field; the message names the offending key path."""


# The config schema: one JSON section per model class, one key per
# ``params.setting`` field of it, whose metadata give the key, its kind and
# its bound; a key's default is its field's in the builder, and without one
# it is required.  The ``scenario`` section holds the settings of Scenario.
SECTIONS = {"cavity": CavitySpec, "ensemble": EnsembleState, "transitions": TransitionSet,
            "probe": ProbeConfig, "noise": NoiseChain, "mcp": McpModel}


def _value(v, kind, bound, path):
    if kind == "nums":
        if not isinstance(v, list):
            raise ConfigError(f"{path}: expected a list of numbers, got {v!r}")
        return [_value(x, "num", bound, f"{path}[{i}]") for i, x in enumerate(v)]
    if isinstance(kind, tuple):  # the allowed strings
        if v not in kind:
            raise ConfigError(f"{path}: {v!r} not one of {', '.join(kind)}")
    elif kind in ("bool", "str"):
        if not isinstance(v, bool if kind == "bool" else str):
            raise ConfigError(f"{path}: expected a {kind}, got {v!r}")
    elif not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) <= FLOAT_MAX:
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    elif kind == "int" and v != int(v):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    elif bound is not None and not within(v, bound):  # the value as written
        raise ConfigError(f"{path}: must be {bound}, got {v!r}")
    else:
        return int(v) if kind == "int" else TWO_PI * v if kind == "hz" else float(v)
    return v


def _section(raw, path, build):
    """Check one JSON object against the settings of its builder's model
    class, and call ``build`` with the converted fields; ``_`` keys are comments."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {raw!r}")
    settings = {f.metadata["key"]: f for f in fields(getattr(build, "func", build)) if f.metadata}
    for key in raw:
        if key not in settings and not key.startswith("_"):
            raise ConfigError(f"{path}.{key}: unknown key")
    params = inspect.signature(build).parameters
    kw = {}
    for key, fld in settings.items():
        if key in raw:
            kw[fld.name] = _value(raw[key], fld.metadata["kind"], fld.metadata["bound"],
                                  f"{path}.{key}")
        elif params[fld.name].default is inspect.Parameter.empty:
            raise ConfigError(f"{path}.{key}: missing required field")
    try:
        return build(**kw)
    except ValueError as exc:  # the model's invariants across fields
        raise ConfigError(f"{path}: {exc}") from exc


def _object(pairs):
    """A JSON object as a dict; a key given twice in it raises ConfigError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{key}: key given twice in one JSON object")
        obj[key] = value
    return obj


def load_scenario(path) -> Scenario:
    """Load and validate a scenario config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(), object_pairs_hook=_object)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for key in raw:
        if key != "scenario" and key not in SECTIONS and not key.startswith("_"):
            raise ConfigError(f"{key}: unknown section")
    parts = {name: _section(raw.get(name, {}), name, cls) for name, cls in SECTIONS.items()}
    build = partial(Scenario, name=path.stem, **parts)
    scenario = _section(raw.get("scenario", {}), "scenario", build)
    if scenario.type is None:
        raise ConfigError("scenario.type: missing required field")
    try:
        scenario.require(scenario.type)
    except ValueError as exc:  # it names the config key
        raise ConfigError(str(exc)) from exc
    return scenario


# ---------------------------------------------------------------------------
# writers


CSV_BLOCK_ROWS = 512  # most rows formatted per call; bounds the writer's memory
CSV_FEW_VALUES = 8  # a block column with at most rows/8 distinct values formats each once

# A cell is four little-endian 64-bit words of ASCII, NUL where unused, its
# separator in the last byte.  Floats with _EXACT_LO <= |x| < _EXACT_HI get
# their 17 digits from integer arithmetic (``_digits17``; for these the
# shift s lies in [1, 63]); every other float cell is formatted by "%.17g",
# which needs at most 24 bytes.
_EXACT_LO, _EXACT_HI = 1e-10, 1e15
_POW5 = np.array([5**k for k in range(28)], np.uint64)  # 5**27 < 2**63
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"


def _words(rows):
    """Equal-length byte strings as little-endian words, one column each."""
    return np.frombuffer(b"".join(rows), "<u8").reshape(len(rows), -1).T.copy()


# by n = 0 ... 24: the low n bytes of 24 set, and "." at byte n
_LOW = _words([b"\xff" * n + b"\0" * (24 - n) for n in range(25)])
_HIGH = ~_LOW
_DOT = _words([(b"\0" * n + b".").ljust(24, b"\0")[:24] for n in range(25)])
# by decimal exponent -10 ... 14: the digit the point follows (17: none),
# "0." and up to three zeros in bytes 1-5 of the cell's first word, and
# "e-05" ... "e-10" in bytes 2-5 of its last word
_EXPONENTS = range(-10, 15)
_POINT = np.array([e if e >= 0 else 0 if e < -4 else 17 for e in _EXPONENTS])
_PREFIX = _words([(b"\0" + b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").ljust(8, b"\0")
                  for e in _EXPONENTS])[0]
_SUFFIX = _words([(b"\0\0" + b"e-%02d" % -e if e < -4 else b"").ljust(8, b"\0")
                  for e in _EXPONENTS])[0]


def _scaled(m, e2, exp10):
    """floor(m * 2**e2 * 10**(16 - exp10)), its remainder and half its divisor:
    m * 5**k in two 64-bit limbs, shifted right by s = -(e2 + k)."""
    s = 16 - exp10  # k
    p = _POW5[s]
    s += e2
    np.negative(s, out=s)
    s = s.view(np.uint64)
    hi, lo = m >> 32, m & 0xFFFFFFFF
    low = p & 0xFFFFFFFF
    p >>= 32
    mid = hi * low
    low *= lo
    lo *= p
    mid += lo  # < 2**64, as m < 2**53 and 5**k < 2**63
    hi *= p
    hi += mid >> 32
    mid <<= 32
    mid += low
    hi += mid < low  # the carry
    half = np.uint64(1) << (s - 1)
    q = hi << (64 - s)
    q |= mid >> s
    mid &= (half << 1) - 1
    return q, mid, half


def _digits17(a):
    """The 17 significant digits of each ``a`` in [_EXACT_LO, _EXACT_HI),
    correctly rounded (half to even), as ``(d, exp10)`` with 1e16 <= d < 1e17
    and a = d * 10**(exp10 - 16) to the rounding."""
    bits = a.view(np.uint64)
    m = bits & 0xFFFFFFFFFFFFF
    m |= 0x10000000000000
    e2 = (bits >> 52).view(np.int64)
    e2 -= 1075  # a = m * 2**e2, a normal number
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    q, rem, half = _scaled(m, e2, exp10)
    # log10 can be one off next to a power of ten; the truncated digits say
    off = (q >= 10**17).view(np.int8) - (q < 10**16).view(np.int8)
    if off.any():
        i = np.flatnonzero(off)
        exp10[i] += off[i]
        q[i], rem[i], half[i] = _scaled(m[i], e2[i], exp10[i])
    q += (rem > half) | ((rem == half) & (q & 1 == 1))
    carry = q == 10**17
    q -= carry * np.uint64(9 * 10**16)
    exp10 += carry
    return q, exp10


def _swar8(v):
    """The 8 decimal digits of each v < 10**8 (v is overwritten), one per
    byte, the most significant in the lowest: the halves, quarters and
    eighths are split in place in 32-, 16- and 8-bit lanes by multiply and
    shift."""
    hi = v // 10000
    v -= hi * 10000
    v <<= 32
    v |= hi
    hi = v * 10486
    hi >>= 20
    hi &= 0x0000007F0000007F  # / 100 per lane, for < 10**4
    v -= hi * 100
    v <<= 16
    v |= hi
    hi = v * 103
    hi >>= 10
    hi &= 0x000F000F000F000F  # / 10 per lane, for < 100
    v -= hi * 10
    v <<= 8
    v |= hi
    return v


def _float_words(x):
    """The "%.17g" text of each float64 in 1-D ``x`` (overwritten), as
    (4, x.size) words."""
    words = np.empty((4, x.size), "<u8")
    neg = np.signbit(x)
    words[0] = neg * np.uint64(ord("-"))
    a = np.abs(x, out=x)
    # the rest (0, inf, NaN, too small or too large) go through "%.17g"
    i = np.flatnonzero(~((a >= _EXACT_LO) & (a < _EXACT_HI)))
    rest = np.where(neg[i], -a[i], a[i])
    a[i] = 1.0
    d, exp10 = _digits17(a)
    lead = d // 10**16
    d -= lead * 10**16
    eight = np.empty((2, x.size), np.uint64)
    eight[0] = d // 10**8
    d -= eight[0] * 10**8
    eight[1] = d
    eight = _swar8(eight)
    # keep the digits up to the last nonzero one (the highest nonzero byte,
    # from the exponent of the word as a float, which no rounding moves as
    # no byte exceeds 9), and the whole integer part
    used = eight.astype(np.float64).view(np.int64)
    used >>= 52
    used -= 1015  # bit length + 7
    np.maximum(used, 0, out=used)
    used >>= 3
    keep = used[0] + 1
    keep += (used[1] > 0) * (used[1] - used[0] + 8)
    np.maximum(keep, exp10 + 1, out=keep)
    text = words[1:]  # the 17 digits, d0 in the lowest byte
    np.left_shift(eight[0], 8, out=text[0])
    text[0] |= lead
    np.left_shift(eight[1], 8, out=text[1])
    text[1] |= eight[0] >> 56
    np.right_shift(eight[1], 56, out=text[2])
    text += _ZEROS
    text &= np.take(_LOW, keep, axis=1)
    # the point after digit _POINT[exp10]: fixed notation for exp10 >= -4,
    # d.ddde-XX below
    row = exp10 + 10
    point = _POINT[row]
    shifted = text << 8
    shifted[1:] |= text[:-1] >> 56
    text &= np.take(_LOW, point + 1, axis=1)
    shifted &= np.take(_HIGH, point + 2, axis=1)
    text |= shifted
    text |= np.take(_DOT, point + 1, axis=1) * (keep > point + 1)
    words[0] |= _PREFIX[row]
    words[3] |= _SUFFIX[row]
    if i.size:  # once per distinct bit pattern
        bits, at = np.unique(rest.view(np.uint64), return_inverse=True)
        text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype="S32")
        words[:, i] = text.view("<u8").reshape(-1, 4)[at].T
    return words


def _cell_words(columns):
    """The (4, rows) words of the cells of each of the equal-length 1-D
    ``columns``.  Every column is cast to float64 (exact for the integers
    ``write_csv`` accepts) and all cells are formatted in one batch; a
    column with few distinct values (told apart by bit pattern, so -0.0
    stays apart from 0.0) has each value formatted once."""
    rows = len(columns[0])
    x = np.empty((len(columns), rows))
    with np.errstate(invalid="ignore"):  # signalling NaNs of float32
        for k, c in enumerate(columns):
            x[k] = c
    bits = x.view(np.uint64)
    ordered = np.sort(bits, axis=1)
    first = np.ones((len(columns), rows), bool)  # first of a run of equal values
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    values, at, start = [], [], 0
    for k in range(len(columns)):
        if np.count_nonzero(first[k]) * CSV_FEW_VALUES <= rows:
            keys = ordered[k, first[k]]
            values.append(keys.view(np.float64))
            at.append(start + np.searchsorted(keys, bits[k]))
        else:
            values.append(x[k])
            at.append(slice(start, start + rows))
        start += values[-1].size
    words = _float_words(np.concatenate(values))
    return [words[:, a] for a in at]


def _checked(columns, names):
    """The named ``columns`` of one block as equal-length 1-D arrays, each
    checked as :func:`write_csv_blocks` states; every error names a column."""
    if list(columns) != names:
        raise ValueError(f"write_csv: block columns {list(columns)} are not the header {names}")
    arrays = [np.atleast_1d(np.asarray(v)) for v in columns.values()]
    n = max(len(a) for a in arrays)
    for name, a in zip(columns, arrays):
        if a.dtype.kind not in "iuf" or a.dtype.itemsize > 8:
            raise TypeError(f"write_csv: column {name!r} has dtype {a.dtype}; "
                            "only int and float up to 64 bits are written")
        if a.shape != (n,):
            raise ValueError(f"write_csv: column {name!r} has shape {a.shape}; expected ({n},)")
        if a.dtype.kind in "iu" and a.size and not -2**53 <= int(a.min()) <= int(a.max()) <= 2**53:
            raise ValueError(f"write_csv: column {name!r} has integers outside "
                             "[-2**53, 2**53], which float64 does not hold exactly")
    return arrays


def write_csv(path, columns: dict):
    """Write named 1-D columns: the one-block case of :func:`write_csv_blocks`."""
    return write_csv_blocks(path, [columns])


def write_csv_blocks(path, blocks):
    """Write an iterable of blocks of rows as one CSV.  Each block is a dict
    of named 1-D columns of one length (unit-suffixed names); the header is
    the first block's names, and every block must hold them in the same order.

    Every cell is written as "%.17g" writes it, in the way the module
    docstring describes, a block of n rows in ceil(n / :data:`CSV_BLOCK_ROWS`)
    batches whose sizes differ by at most one row.  The columns are floats,
    or integers in [-2**53, 2**53], which float64 holds exactly and "%.17g"
    writes as ``str`` does; the cells are numbers, so no cell needs CSV
    quoting, and a name that would (empty, or holding a comma, a double
    quote, CR or LF) raises ``ValueError``, as does a first block with no
    columns (or no block).  Columns of any other dtype (bool and
    ``longdouble`` among them) raise ``TypeError``; integers out of range,
    a column that is not 1-D and one shorter than the block's longest
    raise ``ValueError``.  Each names the column.  The first block is
    checked before the file is opened, every later one before its bytes
    are written; a failure there, or an error raised by ``blocks``,
    removes the file.  So one block is in memory at a time.
    """
    path = Path(path)
    blocks = iter(blocks)
    names = list(first := next(blocks, {}))
    if not names:
        raise ValueError("write_csv: the first block has no columns")
    for name in names:
        if not name or any(c in name for c in ',"\r\n'):
            raise ValueError(f"write_csv: column name {name!r} would need CSV quoting")
    checked = chain([_checked(first, names)], (_checked(c, names) for c in blocks))
    m = len(names)
    # csv.writer's separators, "\r\n" its line terminator
    seps = np.full(m, ord(","), "<u8") << 56
    seps[-1] = np.uint64(ord("\r")) << 56
    with path.open("wb") as fh:
        try:
            fh.write((",".join(names) + "\r\n").encode())
            for arrays in checked:
                n = len(arrays[0])
                batches = -(-n // CSV_BLOCK_ROWS)
                mat = np.zeros((min(n, CSV_BLOCK_ROWS), 4 * m + 1), "<u8")
                mat[:, -1] = ord("\n")
                cells = mat[:, :-1].reshape(len(mat), m, 4)
                for b in range(batches):  # rows i to k, the block split evenly
                    i, k = b * n // batches, (b + 1) * n // batches
                    rows = cells[:k - i]
                    for j, w in enumerate(_cell_words([a[i:k] for a in arrays])):
                        for word in range(3):
                            rows[:, j, word] = w[word]
                        np.bitwise_or(w[3], seps[j], out=rows[:, j, 3])
                    fh.write(mat[:len(rows)].tobytes().translate(None, b"\0"))
        except BaseException:
            fh.close()
            path.unlink()
            raise
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
    seed: int | None  # None for a run that draws nothing
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
