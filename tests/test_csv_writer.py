"""configio.write_csv against the row-by-row csv.writer it replaced.

``rowwise_write_csv`` is that writer, kept here as the byte oracle: every
output of ``write_csv`` must equal its output byte for byte.
"""

import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydcav import cli, configio
from rydcav.configio import (CSV_BLOCK_ROWS, CSV_FEW_VALUES, _digits17, _float_words,
                             load_scenario, write_csv, write_csv_blocks)

B = CSV_BLOCK_ROWS


def rowwise_write_csv(path, columns: dict):
    """csv.writer rows, floats by ``"{:.17g}".format`` and the rest by ``str``."""
    arrays = [np.asarray(v) for v in columns.values()]
    n = len(arrays[0])
    fmts = ["{:.17g}".format if a.dtype.kind == "f" else str for a in arrays]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for i in range(0, n, 8192):
            w.writerows(zip(*(map(f, a[i:i + 8192].tolist()) for f, a in zip(fmts, arrays))))
    return path


def rowwise_write_csv_blocks(path, blocks):
    """``rowwise_write_csv`` of the blocks joined column by column."""
    blocks = list(blocks)
    return rowwise_write_csv(path, {k: np.concatenate([b[k] for b in blocks])
                                    for k in blocks[0]})


SPECIAL_FLOATS = np.array([
    np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 2.2250738585072014e-308, 1e300, -1e300,
    np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0, 1e16, 123456789012345678.0,
])
# the ends of the integer range write_csv accepts, and 10**15, where integer
# cells move from the exact digits to the "%.17g" fallback
INT64_EXTREMES = np.array([-2**53, 2**53, -(2**53 - 1), 2**53 - 1, 0, -1, 1,
                           10**15 - 1, 10**15, -(10**15 - 1), -10**15])
UINT64_EXTREMES = np.array([0, 2**53, 2**53 - 1, 10**15 - 1, 10**15], dtype=np.uint64)


def random_floats(rng, n):
    """Random bit patterns (NaN payloads and subnormals included) with
    special values at random rows."""
    x = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    at = rng.random(n) < 0.3
    x[at] = rng.choice(SPECIAL_FLOATS, at.sum())
    return x


def few_floats(rng, n):
    """A column drawn from k distinct values (0.0 and -0.0 among them), k
    on either side of the distinct-value threshold."""
    k = max(1, n // CSV_FEW_VALUES + int(rng.integers(-1, 2)))
    pool = np.concatenate([[0.0, -0.0], random_floats(rng, k)])[:k]
    return rng.choice(pool, n)


def random_ints(rng, n):
    """Integers in [-2**53, 2**53], with the named extremes at random rows."""
    x = rng.integers(-2**53, 2**53, n, dtype=np.int64, endpoint=True)
    at = rng.random(n) < 0.3
    x[at] = rng.choice(INT64_EXTREMES, at.sum())
    return x


def random_uints(rng, n):
    """Unsigned integers up to 2**53, with the named extremes at random rows."""
    x = rng.integers(0, 2**53, n, dtype=np.uint64, endpoint=True)
    at = rng.random(n) < 0.3
    x[at] = rng.choice(UINT64_EXTREMES, at.sum())
    return x


COLUMNS = {
    "float": random_floats,
    "float_few": few_floats,
    "float32": lambda rng, n: rng.integers(0, 2**32, n, dtype=np.uint32).view(np.float32),
    "int64": random_ints,
    "uint64": random_uints,
    "uint8": lambda rng, n: rng.integers(0, 256, n, dtype=np.uint8),
    "list": lambda rng, n: random_floats(rng, n).tolist(),
    "constant": lambda rng, n: np.full(n, rng.choice(SPECIAL_FLOATS)),
    "int_constant": lambda rng, n: np.full(n, rng.choice(INT64_EXTREMES)),
}


def assert_same_bytes(tmp_path, columns):
    got = write_csv(tmp_path / "got.csv", columns).read_bytes()
    want = rowwise_write_csv(tmp_path / "want.csv", columns).read_bytes()
    assert got == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([1, 2, 9, B - 1, B, B + 1, 2 * B + 3]) | st.integers(1, 600),
       kinds=st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=6))
def test_matches_rowwise_writer(tmp_path_factory, seed, n, kinds):
    rng = np.random.default_rng(seed)
    columns = {f"{kind}_{i}": COLUMNS[kind](rng, n) for i, kind in enumerate(kinds)}
    columns["x"] = random_floats(rng, n)
    assert_same_bytes(tmp_path_factory.mktemp("csv"), columns)


@pytest.mark.parametrize("n", [B - 1, B, B + 1])
def test_matches_rowwise_writer_at_block_edges(tmp_path, n):
    rng = np.random.default_rng(n)
    assert_same_bytes(tmp_path, {kind: COLUMNS[kind](rng, n) for kind in sorted(COLUMNS)})


@pytest.mark.parametrize("distinct", [B // CSV_FEW_VALUES, B // CSV_FEW_VALUES + 1],
                         ids=["formatted-once", "formatted-per-cell"])
def test_signed_zeros_stay_apart(tmp_path, distinct):
    # 0.0 == -0.0, so a value-keyed distinct-value path would write one of
    # them for both; the bit pattern keeps them apart
    rng = np.random.default_rng(distinct)
    pool = np.concatenate([[0.0, -0.0, np.nan], rng.standard_normal(distinct - 3)])
    x = rng.choice(pool, B)
    x[:distinct] = pool  # every value of the pool present
    assert_same_bytes(tmp_path, {"x": x, "y": -x, "zero": np.array([-0.0, 0.0]).repeat(B // 2)})
    text = (tmp_path / "got.csv").read_text()
    assert "\n-0," in text and "\n0," in text


@pytest.mark.parametrize("value", [
    pytest.param(np.array([1 + 2j]), id="complex"),
    pytest.param(np.array([True, False, True]), id="bool"),
    pytest.param(np.array(["a"]), id="str"),
    pytest.param(np.array([1.0, "a"], dtype=object), id="object"),
    pytest.param(np.array(["2020-01-01"], dtype="datetime64[D]"), id="datetime"),
    pytest.param(np.array([1.0], dtype=np.longdouble), id="longdouble",
                 marks=pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8,
                                          reason="longdouble is double on this platform")),
])
def test_non_numeric_column_rejected(tmp_path, value):
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError, match="column 'bad'"):
        write_csv(path, {"x_s": np.arange(3.0), "bad": value})
    assert not path.exists()


@pytest.mark.parametrize("value", [
    pytest.param(np.array([0, 2**53 + 1, 1]), id="2**53+1"),
    pytest.param(np.array([0, -2**53 - 1, 1]), id="-2**53-1"),
    pytest.param(np.array([0, 2**64 - 1, 1], dtype=np.uint64), id="uint64-max"),
])
def test_integers_beyond_float64_rejected(tmp_path, value):
    # float64 holds every integer up to 2**53 exactly, and no larger one
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"column 'bad' has integers outside \[-2\*\*53"):
        write_csv(path, {"x_s": np.arange(3.0), "bad": value})
    assert not path.exists()


@pytest.mark.parametrize("columns", [
    pytest.param({"x_s": np.arange(5.0), "bad": np.arange(3)}, id="shorter"),
    pytest.param({"bad": np.arange(3.0), "x_s": np.arange(5.0)}, id="shorter-first"),
    pytest.param({"x_s": np.arange(3.0), "bad": np.array([])}, id="empty"),
    pytest.param({"x_s": np.arange(3.0), "bad": np.zeros((3, 2))}, id="2-D"),
    # one value is not repeated on every row
    pytest.param({"x_s": np.arange(3.0), "bad": np.array([2.5])}, id="length-1"),
    pytest.param({"x_s": np.arange(3.0), "bad": 2.5}, id="0-D"),
])
def test_misshapen_column_rejected(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="column 'bad' has shape"):
        write_csv(path, columns)
    assert not path.exists()


@pytest.mark.parametrize("name", ["", "a,b", 'say "x"', "a\rb", "a\nb"])
def test_name_needing_csv_quotes_rejected(tmp_path, name):
    # the header is the names joined by commas, which holds for names that
    # csv.writer would write unquoted
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"column name {re.escape(repr(name))}"):
        write_csv(path, {"x_s": np.arange(3.0), name: np.arange(3.0)})
    assert not path.exists()


@pytest.mark.parametrize("n, sizes", [
    (0, []), (1, [1]), (B, [B]), (B + 1, [B // 2, B // 2 + 1]),
    (3616, [452] * 8),  # the last block of a packaged campaign setting
    (4096, [B] * 8),
])
def test_block_split_into_equal_batches(tmp_path, monkeypatch, n, sizes):
    # ceil(n / B) batches whose sizes differ by at most one row
    seen, cell_words = [], configio._cell_words
    monkeypatch.setattr(configio, "_cell_words",
                        lambda columns: seen.append(len(columns[0])) or cell_words(columns))
    x = np.random.default_rng(n).standard_normal(n)
    assert_same_bytes(tmp_path, {"x": x, "id": np.arange(n)})
    assert seen == sizes


def test_memory_independent_of_row_count(tmp_path):
    def peak(blocks):
        n = blocks * B
        rng = np.random.default_rng(blocks)
        columns = {"id": np.arange(n), "x": rng.standard_normal(n),
                   "few": rng.choice([0.5, -0.0, 2.0], n)}
        tracemalloc.start()
        try:
            write_csv(tmp_path / f"{blocks}.csv", columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) <= 1.5 * peak(4)


@pytest.mark.parametrize("sizes", [[1], [3, 1, B + 2], [B, B], [2 * B + 3, 5]])
def test_blocks_match_rowwise_writer_of_joined_columns(tmp_path, sizes):
    rng = np.random.default_rng(len(sizes))
    blocks = [{kind: COLUMNS[kind](rng, n) for kind in sorted(COLUMNS)} for n in sizes]
    got = write_csv_blocks(tmp_path / "got.csv", iter(blocks)).read_bytes()
    assert got == rowwise_write_csv_blocks(tmp_path / "want.csv", blocks).read_bytes()


FIRST = {"x_s": np.arange(3.0), "y": np.arange(3)}


@pytest.mark.parametrize("bad, error, match", [
    pytest.param({"y": np.arange(3), "x_s": np.arange(3.0)}, ValueError, "block columns",
                 id="reordered"),
    pytest.param({"x_s": np.arange(3.0)}, ValueError, "block columns", id="missing"),
    pytest.param({"x_s": np.arange(3.0), "y": np.array([True, False])}, TypeError,
                 "column 'y' has dtype bool", id="bool"),
    pytest.param({"x_s": np.arange(3.0), "y": np.arange(2)}, ValueError,
                 "column 'y' has shape", id="shorter"),
    pytest.param({"x_s": np.arange(3.0), "y": np.array([0, 2**53 + 1, 1])}, ValueError,
                 "column 'y' has integers outside", id="2**53+1"),
])
def test_later_bad_block_removes_file(tmp_path, bad, error, match):
    # checked before its bytes are written, like the first block
    path = tmp_path / "t.csv"
    with pytest.raises(error, match=match):
        write_csv_blocks(path, [FIRST, FIRST, bad])
    assert not path.exists()


def test_failing_block_source_removes_file(tmp_path):
    def blocks():
        yield FIRST
        yield FIRST
        raise RuntimeError("block 2 failed")

    path = tmp_path / "t.csv"
    with pytest.raises(RuntimeError, match="block 2 failed"):
        write_csv_blocks(path, blocks())
    assert not path.exists()


def test_block_memory_independent_of_block_count(tmp_path):
    # a stream of blocks is written one block at a time
    def peak(count):
        def blocks():
            rng = np.random.default_rng(count)
            for b in range(count):
                yield {"id": np.arange(b * 4 * B, (b + 1) * 4 * B),
                       "x": rng.standard_normal(4 * B)}

        tracemalloc.start()
        try:
            write_csv_blocks(tmp_path / f"{count}.csv", blocks())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) <= 1.2 * peak(4)


# float64 bit patterns of the range that _digits17 formats exactly
EXACT_BITS = (int(np.float64(1e-10).view(np.uint64)),
              int(np.nextafter(1e15, 0).view(np.uint64)))


def bit_patterns(values):
    return [int(b) for b in np.abs(np.asarray(values, dtype=np.float64)).view(np.uint64)]


POWERS_OF_TEN = [v for n in range(-10, 15) for v in (np.nextafter(10.0**n, 0), 10.0**n,
                                                     np.nextafter(10.0**n, np.inf))
                 if 1e-10 <= v < 1e15]


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(*EXACT_BITS), min_size=1, max_size=64),
       signs=st.integers(0, 2**64 - 1))
@example(bits=bit_patterns([1e-10, np.nextafter(1e15, 0)]), signs=1).via("range ends")
@example(bits=bit_patterns(POWERS_OF_TEN), signs=0).via("powers of ten +- 1 ulp")
@example(bits=bit_patterns([100000000000000.125, 100000000000000.375, 123456789012345.625]),
         signs=2).via("ties to even")
@example(bits=bit_patterns([3 * 2.0**-k for k in range(-48, 35)]), signs=0).via("3 * 2**-k")
def test_digit_routine_matches_percent_17g(bits, signs):
    # the digits, exponent and cell text of the exact path against Python's
    # correctly rounded formatting, cell by cell
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    x[[signs >> i & 1 == 1 for i in range(x.size)]] *= -1
    d, exp10 = _digits17(np.abs(x))
    for v, di, ei in zip(x.tolist(), d.tolist(), exp10.tolist()):
        mantissa, exponent = ("%.16e" % abs(v)).split("e")
        assert (di, ei) == (int(mantissa.replace(".", "")), int(exponent)), v
    cells = _float_words(x.copy()).T.copy().view(np.uint8).reshape(x.size, -1)
    got = [bytes(c).replace(b"\0", b"").decode() for c in cells]
    assert got == ["%.17g" % v for v in x.tolist()]


def test_campaign_memory(tmp_path, config_dir):
    # the packaged campaign's shots.csv, computed and written one block of
    # records at a time: the campaign and the writer together peak far
    # below the 8 MB of the columns
    scenario = load_scenario(config_dir / "campaign.json")
    np.random.default_rng()  # numpy.random is imported on first use, not counted here
    tracemalloc.start()
    try:
        write_csv_blocks(tmp_path / "shots.csv", cli._campaign(scenario, 1)["shots.csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6
