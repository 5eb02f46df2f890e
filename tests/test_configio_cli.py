import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from rydcav import (EnsembleState, McpModel, NoiseChain, ProbeConfig, Scenario, cli,
                    experiments, fitting, pointlike_correction, run_flythrough,
                    transmission)
from rydcav.params import TWO_PI, within
from rydcav.configio import (
    SCENARIO,
    SCENARIO_TYPES,
    SECTIONS,
    ConfigError,
    _sha256,
    load_scenario,
    write_csv,
    write_json,
)
from test_csv_writer import rowwise_write_csv, rowwise_write_csv_blocks
from test_experiments import compute_blocks_last_first
from test_kernels import loop_filter
from test_transmission import reference_shift_trace, whole_trace_response

ALL_CONFIGS = ("flythrough", "sensitivity", "power", "rabi", "campaign", "trueness")
COMMANDS = ("simulate", "fit", "campaign", "trueness")
# (command, packaged config) pairs whose scenario type has no task
MISMATCHED = [(cmd, cfg) for cmd in COMMANDS for cfg in ALL_CONFIGS if (cmd, cfg) not in cli.TASKS]


# ---------------------------------------------------------------------------
# config loading


class TestLoadScenario:
    @pytest.mark.parametrize("name", ALL_CONFIGS)
    def test_packaged_configs_load(self, config_dir, name):
        sc = load_scenario(config_dir / f"{name}.json")
        assert sc.cavity.kappa == pytest.approx(TWO_PI * 236e3)
        assert sc.type == name

    def test_hz_to_angular_conversion(self, config_dir):
        sc = load_scenario(config_dir / "flythrough.json")
        assert sc.cavity.omega_c == pytest.approx(TWO_PI * 20.5583e9)
        assert sc.cavity.g_max == pytest.approx(TWO_PI * 14.3e3)
        assert sc.transitions.delta_plus == pytest.approx(-TWO_PI * 8e6)

    def test_flag_hz_conversion(self, config_dir):
        sc = load_scenario(config_dir / "power.json")
        assert sc.g_eff == pytest.approx(TWO_PI * 12.9e3)

    def test_missing_required_field_names_key_path(self, config_dir, tmp_path):
        raw = json.loads((config_dir / "flythrough.json").read_text())
        del raw["cavity"]["kappa_hz"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="cavity.kappa_hz"):
            load_scenario(bad)

    def test_non_numeric_field_rejected(self, config_dir, tmp_path):
        raw = json.loads((config_dir / "flythrough.json").read_text())
        raw["cavity"]["kappa_hz"] = "fast"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="cavity.kappa_hz"):
            load_scenario(bad)

    def test_negative_kappa_rejected(self, config_dir, tmp_path):
        raw = json.loads((config_dir / "flythrough.json").read_text())
        raw["cavity"]["kappa_hz"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="cavity.kappa_hz"):
            load_scenario(bad)

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(bad)

    def test_cloud_size_selects_extended_model(self, config_dir, tmp_path):
        raw = json.loads((config_dir / "flythrough.json").read_text())
        raw["ensemble"]["sigma_z_m"] = 3e-3
        path = tmp_path / "cloud.json"
        path.write_text(json.dumps(raw))
        point, sc = load_scenario(config_dir / "flythrough.json"), load_scenario(path)
        # chi(t) of the sized cloud peaks the closed-form cloud average below
        # the point cloud's, on the same samples
        point_chi, chi = (transmission.flythrough_shift(
            s.ensemble, s.cavity, s.transitions, s.kappa, transit_decay=s.transit_decay).chi
            for s in (point, sc))
        assert np.array_equal(chi != 0, point_chi != 0)
        assert chi.max() / point_chi.max() - 1.0 == pytest.approx(
            pointlike_correction(3e-3, 0.0, sc.cavity), rel=1e-4)
        resonant = run_flythrough(sc)["traces"][0]["dphi_extremum_deg"]
        assert resonant == pytest.approx(-2.8558, abs=1e-4)  # point cloud: -3.9505

    def test_unknown_type_rejected(self, config_dir, tmp_path):
        raw = json.loads((config_dir / "flythrough.json").read_text())
        raw["scenario"]["type"] = "mystery"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="scenario.type"):
            load_scenario(bad)

    @pytest.mark.parametrize("where", [("scenario", "shots"), ("scenario", "master_seed"),
                                       ("cavity", "mode_antinodes")])
    def test_non_integral_integer_rejected(self, config_dir, tmp_path, where):
        raw = json.loads((config_dir / "campaign.json").read_text())
        section, key = where
        raw[section][key] = 2.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"{section}.{key}: expected an integer"):
            load_scenario(bad)
        raw[section][key] = 2e4  # an integral float is an integer
        bad.write_text(json.dumps(raw))
        sc = load_scenario(bad)
        value = getattr(sc.cavity if section == "cavity" else sc, key)
        assert value == 20000 and isinstance(value, int)

    def test_comment_keys_ignored(self, config_dir, tmp_path):
        raw = json.loads((config_dir / "power.json").read_text())
        raw["_note"] = "top-level comment"
        raw["cavity"]["_note"] = {"any": "value"}
        raw["scenario"]["_unit"] = [1, 2]
        path = tmp_path / "commented.json"
        path.write_text(json.dumps(raw))
        sc, ref = load_scenario(path), load_scenario(config_dir / "power.json")
        assert dataclasses.replace(sc, name=ref.name) == ref

    def test_minimal_config_takes_dataclass_defaults(self, tmp_path):
        raw = {
            "scenario": {"type": "flythrough"},
            "cavity": {"frequency_hz": 20e9, "kappa_hz": 236e3, "kappa_out_hz": 150e3,
                       "length_z_m": 0.014, "g_max_hz": 14.3e3},
            "ensemble": {"n_atoms": 300},
            "transitions": {"delta_plus_hz": -8e6, "delta_minus_hz": -26e6},
        }
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(raw))
        sc = load_scenario(path)
        assert sc.name == "minimal"
        assert sc.ensemble == EnsembleState(n_atoms=300.0)
        assert sc.probe == ProbeConfig()
        assert sc.noise == NoiseChain()
        assert sc.mcp == McpModel()
        defaults = [f for f in dataclasses.fields(Scenario)
                    if f.name != "type" and f.default is not dataclasses.MISSING]
        assert [getattr(sc, f.name) for f in defaults] == [f.default for f in defaults]
        assert sc.sweep_values == []


# config section -> (the model class of its keys' fields, its rows)
SCHEMA = {"scenario": (Scenario, SCENARIO), **SECTIONS}
# (section, row, bound) of every key whose field has a bound
BOUNDED = [(section, row, build.BOUNDS[row[1]]) for section, (build, table) in SCHEMA.items()
           for row in table if row[1] in build.BOUNDS]
# values just outside each bound; NaN is the one value "finite" rejects
OUTSIDE = {">0": [0], ">=0": [-5e-324], "!=0": [0], "finite": [float("nan")],
           "in (0.5, 1.5]": [0.5, np.nextafter(1.5, 2.0).item()],
           "in (0, 1]": [0, np.nextafter(1.0, 2.0).item()],
           "integer >0": [0], "integer in [0, 2**64)": [-1, 2**64]}
# (section, row, bound, value) for each bounded key
OUT_OF_BOUND = [(section, row, bound, value)
                for section, row, bound in BOUNDED for value in OUTSIDE[bound]]
# the README's text of a bound; an interval reads as it is named
README_BOUNDS = {">0": "> 0", ">=0": "≥ 0", "!=0": "≠ 0",
                 "integer >0": "integer > 0", "integer in [0, 2**64)": "integer in [0, 2⁶⁴)"}


def test_config_rows_name_every_model_field():
    # one config key per setting: the rows of each section name each field
    # of its model class once (for Scenario, all but the six model sections)
    for section, (build, table) in SCHEMA.items():
        fields = {f.name for f in dataclasses.fields(build)} - set(SECTIONS)
        assert sorted(fld for _, fld, _ in table) == sorted(fields), section


def test_readme_documents_every_config_key():
    # the README tables list exactly the keys of the schema, none extra, and
    # each bound cell (before any note after ";") states the model's bound
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
    documented, prev = {}, ""
    for line in section.splitlines():
        heading = re.match(r"`([\w.]+)`[ :]", line)
        if heading and not prev:  # a paragraph that opens with a section name
            keys = documented.setdefault(heading.group(1), {})
        prev = line
        row = re.match(r"\| `(\w+)` \|[^|]*\|[^|]*\| ([^|]*) \|", line)
        if row:
            keys[row.group(1)] = row.group(2).split(";")[0]
    assert {name: sorted(keys) for name, keys in documented.items()} == {
        name: sorted(key for key, *_ in table) for name, (_build, table) in SCHEMA.items()}
    for section, (build, table) in SCHEMA.items():
        for key, fld, kind in table:
            cell = documented[section][key]
            if fld not in build.BOUNDS:
                assert not re.search(r"[<>≥≠]|finite|\(", cell), f"{section}.{key}"
                continue
            # an integer key's field has an integer bound, from Python too
            assert (kind == "int") == build.BOUNDS[fld].startswith("integer"), f"{section}.{key}"
            bound = README_BOUNDS.get(build.BOUNDS[fld], build.BOUNDS[fld])
            assert cell == (f"list of {bound} numbers" if kind == "nums" else bound), \
                f"{section}.{key}"


# Every (command, packaged config) task, cheapest first (in process, without
# writing files: 0.1 ms for trueness to 55 ms for the campaign).
PROBE_ORDER = [("trueness", "trueness"), ("simulate", "power"), ("simulate", "flythrough"),
               ("fit", "flythrough"), ("simulate", "sensitivity"), ("fit", "power"),
               ("simulate", "rabi"), ("campaign", "campaign")]
POPULATIONS = ("p_p_plus", "p_p_minus")


def _task_digest(command, path):
    """SHA-256 of the outputs the CLI task for ``path`` would write, or None
    where the CLI would exit nonzero (the config or the run is rejected)."""
    try:
        scenario = load_scenario(path)
        task = cli.TASKS.get((command, scenario.type))
        if task is None:
            return None
        files = task(scenario)
    except ValueError:  # ConfigError and the model's own validity errors
        return None
    digest = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                digest.update(repr(key).encode())
                feed(value)
        elif isinstance(obj, (list, tuple)):
            digest.update(b"[")
            for value in obj:
                feed(value)
            digest.update(b"]")
        elif isinstance(obj, np.ndarray):
            digest.update(f"{obj.dtype.str}{obj.shape}".encode() + obj.tobytes())
        elif isinstance(obj, types.GeneratorType):  # a streamed file: each of its blocks
            digest.update(b"<")
            for block in obj:
                feed(block)
            digest.update(b">")
        else:
            digest.update(repr(obj).encode())

    feed(files)
    return digest.hexdigest()


def _perturbations(section, key, fld, kind, raw, scenario):
    """Changed values of ``key`` for one packaged config, each as a dict of
    the keys to set in ``section``: the config's own value, or the default
    it resolves to, moved in each direction that can keep the config
    valid, within the bound of its field in the model class.  A p
    population moves 0.1 from or to ``p_s``, so that the populations keep
    their sum; ``p_s`` moves alone."""
    if key in POPULATIONS:
        resolved = {k: getattr(scenario.ensemble, k) for k in (key, "p_s")}
        return [{key: resolved[key] + d, "p_s": resolved["p_s"] - d} for d in (0.1, -0.1)]
    if key in raw:
        value = raw[key]
    else:
        value = getattr(scenario if section == "scenario" else getattr(scenario, section), fld)
        if value is None:  # a setting this type does not use
            return []
        if kind == "hz":
            value = value / TWO_PI
    if isinstance(kind, tuple):  # one of the listed strings
        values = [v for v in kind if v != value]
    elif kind == "bool":
        values = [not value]
    elif kind == "str":
        values = [value + "-x"]
    elif kind == "int":
        values = [value + 1, value - 1]
    elif kind == "nums":
        values = [[1.1 * v for v in value]]
    elif value == 0:
        values = [1e3 if kind == "hz" else 1e-6]
    else:
        values = [1.1 * value, 0.9 * value]
    bound = SCHEMA[section][0].BOUNDS.get(fld)
    return [{key: v} for v in values if v != value and (bound is None or within(v, bound))]


def test_every_config_key_moves_an_output(config_dir, tmp_path):
    # a config key that moves no output of any task of any packaged config
    # when changed is a dead setting; a change the config or the run
    # rejects does not count
    assert sorted(PROBE_ORDER) == sorted(cli.TASKS)
    raws = {cfg: json.loads((config_dir / f"{cfg}.json").read_text()) for _, cfg in PROBE_ORDER}
    loaded = {cfg: load_scenario(config_dir / f"{cfg}.json") for cfg in raws}
    baseline = {pair: _task_digest(pair[0], config_dir / f"{pair[1]}.json")
                for pair in PROBE_ORDER}
    assert None not in baseline.values()
    # a digest that differs between two runs of one config would count
    # every change as a moved output
    assert baseline == {pair: _task_digest(pair[0], config_dir / f"{pair[1]}.json")
                        for pair in PROBE_ORDER}
    keys = [(section, row) for section, (_build, table) in SCHEMA.items() for row in table]

    def moves(section, row, command, cfg):
        for change in _perturbations(section, *row, raws[cfg].get(section, {}), loaded[cfg]):
            raw = json.loads(json.dumps(raws[cfg]))
            raw.setdefault(section, {}).update(change)
            path = tmp_path / f"{cfg}.json"
            path.write_text(json.dumps(raw))
            if _task_digest(command, path) not in (None, baseline[command, cfg]):
                return True
        return False

    dead = [f"{section}.{row[0]}" for section, row in keys
            if not any(moves(section, row, command, cfg) for command, cfg in PROBE_ORDER)]
    assert dead == []
    assert len(keys) == 43


def test_readme_documents_every_task():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, flags=re.M)
    assert sorted(rows) == sorted(cli.TASKS)


# ---------------------------------------------------------------------------
# writers


class TestWriters:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50) * 1e-7
        path = write_csv(tmp_path / "t.csv", {"x": x, "y_rad": y})
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y_rad"]
        back = np.array([[float(a), float(b)] for a, b in rows[1:]])
        np.testing.assert_array_equal(back[:, 0], x)
        np.testing.assert_array_equal(back[:, 1], y)

    def test_csv_unit_headers(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", {"time_s": [0.0], "dphi_deg": [1.0]})
        header = path.read_text().splitlines()[0]
        assert header == "time_s,dphi_deg"

    def test_csv_cell_text_per_dtype(self, tmp_path):
        # floats at 17 significant digits, ints as str
        path = write_csv(tmp_path / "t.csv", {
            "x": np.array([0.1, -0.0, np.nan, 5e-324, 1e300]),
            "k": np.array([3, -7, 0, 2 ** 53, 1], dtype=np.int64),
            "s": np.full(5, 2.5),
        })
        assert path.read_bytes().decode().split("\r\n") == [
            "x,k,s",
            "0.10000000000000001,3,2.5",
            "-0,-7,2.5",
            "nan,0,2.5",
            "4.9406564584124654e-324,9007199254740992,2.5",
            "1.0000000000000001e+300,1,2.5",
            "",
        ]

    def test_json_handles_numpy_types(self, tmp_path):
        path = write_json(tmp_path / "t.json", {
            "a": np.float64(1.5), "b": np.arange(3), "c": np.bool_(True),
        })
        back = json.loads(path.read_text())
        assert back == {"a": 1.5, "b": [0, 1, 2], "c": True}
        path = write_json(tmp_path / "t.json", {
            "f32": np.float32(0.1), "i64": np.int64(-3), "zero_d": np.array(2.5),
            "two_d": np.arange(4.0).reshape(2, 2), "tuple": (1, np.float64(0.5)),
            "nan": float("nan"),
        })
        assert path.read_text() == (
            '{\n'
            '  "f32": 0.10000000149011612,\n'
            '  "i64": -3,\n'
            '  "nan": NaN,\n'
            '  "tuple": [\n    1,\n    0.5\n  ],\n'
            '  "two_d": [\n    [\n      0.0,\n      1.0\n    ],\n'
            '    [\n      2.0,\n      3.0\n    ]\n  ],\n'
            '  "zero_d": 2.5\n'
            '}\n'
        )
        with pytest.raises(TypeError, match="^set is not JSON serializable$"):
            write_json(tmp_path / "t.json", {"s": {1, 2}})

    def test_digest_of_file_spanning_several_chunks(self, tmp_path):
        # 10 chunks of 256 KiB and 3 bytes: the last read is partial
        data = np.random.default_rng(0).bytes(5 * 2 ** 19 + 3)
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        assert _sha256(path) == hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# CLI


def run_cli(argv):
    return cli.main(argv)


def process_env():
    """The environment of a fresh interpreter that imports this rydcav."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# Run in a fresh interpreter per (command, config) pair by
# test_import_needs_numpy_only: the optional modules loaded after import, after
# loading every config, and after the one run.
IMPORT_PROBE = """
import json, sys
import rydcav.cli
from rydcav.configio import load_scenario

LAZY = ("rydcav.estimation", "rydcav.fitting", "numpy.ma", "numpy.random",
        "concurrent.futures", "logging", "queue")


def loaded(names=LAZY):
    return sorted(m for m in names if m in sys.modules)


config_dir, out, command, config, *configs = sys.argv[1:]
seen = {"import": loaded(("scipy", "numba", *LAZY))}
for name in configs:
    load_scenario(f"{config_dir}/{name}.json")
seen["load_scenario"] = loaded()
assert rydcav.cli.main([command, "--config", config, "--out", out]) == 0
seen["run"] = loaded()
print(json.dumps(seen))
"""

# The optional modules that each packaged pair's run loads: no run loads
# numpy.ma, only the runs that draw noise load numpy.random.
RUN_LOADS = {
    ("simulate", "flythrough"): [],
    ("simulate", "sensitivity"): [],
    ("simulate", "power"): ["numpy.random"],
    ("simulate", "rabi"): ["rydcav.estimation", "rydcav.fitting"],
    ("fit", "flythrough"): ["numpy.random", "rydcav.estimation", "rydcav.fitting"],
    ("fit", "power"): ["numpy.random", "rydcav.estimation", "rydcav.fitting"],
    ("campaign", "campaign"): ["numpy.random"],
    ("trueness", "trueness"): [],
}


class TestCli:
    def test_usage_error_code(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate"])
        assert exc.value.code == 3

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate", "--config", "x.json"])
        assert exc.value.code == 3

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = run_cli(["simulate", "--config", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path)])
        assert code == 2

    def test_unreadable_config_exit_2(self, tmp_path, config_dir, capsys):
        # a config that cannot be read (here a directory) is a config error
        # naming the path, and the run leaves no output directory
        code = run_cli(["trueness", "--config", str(config_dir), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"rydcav: config error: {config_dir}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--threads", "0"], ["--threads", "-3"], ["--threads", "2"],
                                      ["--seed", "-1"], ["--seed", str(2**64)],
                                      ["--seed", str(10**400)]])
    def test_out_of_range_option_exit_3(self, tmp_path, config_dir, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(["campaign", "--config", str(config_dir / "campaign.json"),
                     "--out", str(tmp_path), *argv])
        assert exc.value.code == 3
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("keys, value, path", [
        (("noise", "digitizer_phase_floor"), 0.01, "noise.digitizer_phase_floor"),
        (("cavities",), {}, "cavities"),
        (("noise",), 5, "noise"),
        # the former flags object: its keys are scenario keys
        (("scenario", "flags"), [1, 2], "scenario.flags"),
        (("scenario", "two_transitions"), "false", "scenario.two_transitions"),
        (("scenario", "photon_grid"), "abc", "scenario.photon_grid"),
        (("scenario", "n_crit"), "4e4", "scenario.n_crit"),
        (("scenario", "sweep_values"), ["200"], "scenario.sweep_values[0]"),
        (("scenario", "sweep_values"), [True], "scenario.sweep_values[0]"),
        (("scenario", "sweep_values"), [100, None], "scenario.sweep_values[1]"),
        pytest.param(("probe", "n_c"), 10 ** 400, "probe.n_c", id="int-beyond-float"),
        # keys that no longer exist: the lifetimes are params.TAU_S/TAU_P, and
        # there is one cloud model (a point cloud is sigma = 0)
        (("scenario", "sweep_name"), "mean_n", "scenario.sweep_name"),
        (("scenario", "extended_cloud"), True, "scenario.extended_cloud"),
        (("scenario", "poisson_preparation"), False, "scenario.poisson_preparation"),
        (("ensemble", "tau_s_s"), 57.2e-6, "ensemble.tau_s_s"),
        (("ensemble", "tau_p_s"), 102.6e-6, "ensemble.tau_p_s"),
        (("mcp", "tau_s_s"), 57.2e-6, "mcp.tau_s_s"),
        (("mcp", "tau_p_s"), 102.6e-6, "mcp.tau_p_s"),
        # nor do these: kappa_in only entered a check, the spacing is that of
        # the two detunings, each runner has its own photon grid (the
        # photon_grid case above) and the rest are experiments constants
        (("cavity", "kappa_in_hz"), 74e3, "cavity.kappa_in_hz"),
        (("scenario", "transition_spacing_hz"), 18e6, "scenario.transition_spacing_hz"),
        (("scenario", "excitation_scale"), 0.038, "scenario.excitation_scale"),
        (("scenario", "p_plus"), 0.61, "scenario.p_plus"),
        (("scenario", "p_minus"), 0.20, "scenario.p_minus"),
        # a list of numbers given a string
        (("scenario", "sweep_values"), "abc", "scenario.sweep_values"),
        # a config that states no scenario type, and one that is not an object
        (("scenario",), {}, "scenario.type"),
        ((), [1, 2], "{file}"),
    ])
    def test_malformed_config_exit_2(self, tmp_path, config_dir, capsys, keys, value, path):
        raw = json.loads((config_dir / "campaign.json").read_text())
        section = raw
        for key in keys[:-1]:
            section = section[key]
        if keys:
            section[keys[-1]] = value
        else:
            raw = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        path = path.format(file=bad)
        with pytest.raises(ConfigError, match=re.escape(path + ":")):
            load_scenario(bad)
        code = run_cli(["campaign", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {path}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, row, bound, value", OUT_OF_BOUND,
                             ids=[f"{s}.{row[0]}={v!r}" for s, row, _, v in OUT_OF_BOUND])
    def test_value_outside_bound_exit_2(self, tmp_path, config_dir, capsys, section, row,
                                        bound, value):
        # the model's bound, checked on the value as written under the key path
        raw = json.loads((config_dir / "campaign.json").read_text())
        target = raw.setdefault(section, {})
        key, path = row[0], f"{section}.{row[0]}"
        if row[2] == "nums":
            target[key], path = [value], f"{path}[0]"
        else:
            target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        if math.isfinite(value):  # 2**64 is too large for np.isfinite
            message = f"{path}: must be {bound}, got {value!r}"
        else:
            message = f"{path}: expected a finite number, got {value!r}"
        with pytest.raises(ConfigError) as exc:
            load_scenario(bad)
        assert str(exc.value) == message
        code = run_cli(["campaign", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_closed_bound_ends_load(self, tmp_path, config_dir, capsys):
        # the closed end of each interval loads, and so does n_c = 0; a run
        # that reads n_c then fails the SNR rule (R > 10) and exits 1
        raw = json.loads((config_dir / "campaign.json").read_text())
        raw["cavity"]["mode_correction"] = 1.5
        raw.setdefault("mcp", {}).update(eta=1, alpha_p=1)
        raw.setdefault("probe", {})["n_c"] = 0
        path = tmp_path / "ends.json"
        path.write_text(json.dumps(raw))
        sc = load_scenario(path)
        assert (sc.cavity.mode_correction, sc.mcp.eta, sc.mcp.alpha_p, sc.probe.n_c) == (
            1.5, 1.0, 1.0, 0.0)
        code = run_cli(["campaign", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "phase_precision requires R > 10" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config", MISMATCHED)
    def test_pair_without_task_exit_2(self, tmp_path, config_dir, capsys, command, config):
        # every packaged config names its own scenario type
        out = tmp_path / "out"
        code = run_cli([command, "--config", str(config_dir / f"{config}.json"),
                        "--out", str(out)])
        assert code == 2
        assert "config error: scenario.type:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, config", [
        ("simulate", "flythrough"), ("fit", "power"), ("trueness", "trueness")])
    def test_threads_is_campaign_only(self, tmp_path, config_dir, command, config):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--config", str(config_dir / f"{config}.json"),
                     "--out", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 3
        assert not any(tmp_path.iterdir())

    def test_tasks_cover_scenario_types(self):
        assert {stype for _, stype in cli.TASKS} == set(SCENARIO_TYPES)
        assert {command for command, _ in cli.TASKS} == set(COMMANDS)
        assert len(MISMATCHED) == len(COMMANDS) * len(SCENARIO_TYPES) - len(cli.TASKS) == 16

    def test_bad_config_exit_2(self, tmp_path, config_dir, capsys):
        raw = json.loads((config_dir / "flythrough.json").read_text())
        del raw["cavity"]["kappa_hz"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run_cli(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "cavity.kappa_hz" in capsys.readouterr().err

    def test_simulate_flythrough(self, tmp_path, config_dir, fast_flythrough):
        code = run_cli(["simulate", "--config", str(fast_flythrough),
                        "--out", str(tmp_path)])
        assert code == 0
        for name in ("trace_resonant.csv", "trace_detuned.csv", "summary.json",
                     "manifest.json"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["traces"]) == 2

    def test_simulate_sensitivity(self, tmp_path, config_dir):
        code = run_cli(["simulate", "--config", str(config_dir / "sensitivity.json"),
                        "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["phase_sensitivity_deg_per_atom"]) == pytest.approx(
            1.44e-2, rel=0.15
        )

    def test_trueness(self, tmp_path, config_dir, capsys):
        code = run_cli(["trueness", "--config", str(config_dir / "trueness.json"),
                        "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "trueness.json").read_text())
        assert report["total"] == pytest.approx(-0.024, abs=0.008)
        assert "total" in capsys.readouterr().out

    def test_trueness_uses_configured_cloud(self, tmp_path, config_dir):
        raw = json.loads((config_dir / "trueness.json").read_text())
        raw["ensemble"].update(sigma_z_m=0.0, sigma_x_m=0.0, n_atoms=0)
        cfg = tmp_path / "point.json"
        cfg.write_text(json.dumps(raw))
        code = run_cli(["trueness", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        items = json.loads((tmp_path / "out" / "trueness.json").read_text())["items"]
        assert items["pointlike_cloud"]["value"] == 0.0
        assert items["dispersive_fourth_order"]["value"] == 0.0

    @pytest.mark.parametrize("values, names", [
        ([200, 400], ["power_n200.csv", "power_n400.csv"]),
        ([200.2, 200.7], ["power_n200.2.csv", "power_n200.7.csv"]),
    ])
    def test_power_sweep_file_per_value(self, tmp_path, config_dir, values, names):
        raw = json.loads((config_dir / "power.json").read_text())
        raw["scenario"]["sweep_values"] = values
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(p.name for p in out.glob("power_n*.csv")) == names
        assert sorted(n for n in outputs if n.startswith("power_n")) == names

    @pytest.mark.parametrize("config, key, value", [
        *[(cfg, "sweep_values", value) for cfg in ("sensitivity", "power", "rabi", "campaign")
          for value in (None, [])],
        ("power", "n_crit", None),
        ("campaign", "n_crit", None),
        *[("trueness", key, None) for key in (
            "detuning_rel_uncertainty", "pointlike_uncertainty", "interaction_spacing_m")],
    ])
    def test_required_setting_exit_2(self, tmp_path, config_dir, capsys, config, key, value):
        raw = json.loads((config_dir / f"{config}.json").read_text())
        if value is None:
            del raw["scenario"][key]
        else:
            raw["scenario"][key] = value
        cfg = tmp_path / f"{config}.json"
        cfg.write_text(json.dumps(raw))
        command = next(c for c, t in cli.TASKS if t == config)
        out = tmp_path / "out"
        assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: scenario.{key}: missing required field for type " \
            f"'{config}'" in capsys.readouterr().err
        assert not out.exists()

    def test_campaign_single_shot_exit_2(self, tmp_path, config_dir, capsys):
        # one shot has no standard deviation: summary.json would hold NaN
        raw = json.loads((config_dir / "campaign.json").read_text())
        raw["scenario"]["shots"] = 1
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli(["campaign", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: scenario.shots: type 'campaign' needs at least 2 shots" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", [[100], [100, 100.0]])
    def test_sensitivity_needs_two_distinct_values(self, tmp_path, config_dir, capsys,
                                                   values):
        raw = json.loads((config_dir / "sensitivity.json").read_text())
        raw["scenario"]["sweep_values"] = values
        cfg = tmp_path / "sensitivity.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: scenario.sweep_values: type 'sensitivity' needs at least 2 " \
            "distinct values" in capsys.readouterr().err
        assert not out.exists()

    def test_power_sweep_repeated_value_exit_2(self, tmp_path, config_dir, capsys):
        raw = json.loads((config_dir / "power.json").read_text())
        raw["scenario"]["sweep_values"] = [200, 400, 200.0]
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: scenario.sweep_values:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [("simulate", "sensitivity"),
                                                 ("simulate", "power"),
                                                 ("campaign", "campaign")])
    def test_negative_atom_number_exit_2(self, tmp_path, config_dir, capsys, command, config):
        # the sweep values of these types are atom numbers
        raw = json.loads((config_dir / f"{config}.json").read_text())
        raw["scenario"]["sweep_values"][0] *= -1
        cfg = tmp_path / f"{config}.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: scenario.sweep_values: type {config!r} sweeps atom numbers, " \
            "which must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_rabi_ratio_accepted(self, tmp_path, config_dir):
        # a Rabi scan's sweep values are signed ratios
        raw = json.loads((config_dir / "rabi.json").read_text())
        raw["scenario"]["sweep_values"] = [-v for v in raw["scenario"]["sweep_values"]]
        cfg = tmp_path / "rabi.json"
        cfg.write_text(json.dumps(raw))
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_tmax_window_key_exit_2(self, tmp_path, config_dir, capsys):
        # the readout window is the constant transmission.READOUT_WINDOW
        raw = json.loads((config_dir / "sensitivity.json").read_text())
        raw["scenario"]["tmax_window"] = 1e-6
        cfg = tmp_path / "sensitivity.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: scenario.tmax_window: unknown key" in err
        assert not out.exists()

    def test_flags_object_exit_2(self, tmp_path, config_dir, capsys):
        # the settings once under scenario.flags are scenario keys
        raw = json.loads((config_dir / "power.json").read_text())
        raw["scenario"]["flags"] = {"n_crit": raw["scenario"].pop("n_crit")}
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: scenario.flags: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("cavity", "kappa_hz"), ("scenario", "n_crit")])
    def test_key_given_twice_exit_2(self, tmp_path, config_dir, capsys, section, key):
        # json.loads alone keeps the last of a repeated key's values
        text = (config_dir / "power.json").read_text()
        cfg = tmp_path / "power.json"
        cfg.write_text(re.sub(f'("{key}": [^,\n]+)', f'\\1, "{key}": 9.9e9', text, count=1))
        assert json.loads(cfg.read_text())[section][key] == 9.9e9
        with pytest.raises(ConfigError, match=f"^{key}: key given twice"):
            load_scenario(cfg)
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {key}: key given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_contents(self, tmp_path, config_dir):
        run_cli(["trueness", "--config", str(config_dir / "trueness.json"),
                 "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "trueness"
        assert "trueness.json" in manifest["outputs"]
        assert len(manifest["config_sha256"]) == 64

    def test_import_needs_numpy_only(self, tmp_path, config_dir, small_campaign):
        # A fresh interpreter per packaged pair, so that no earlier run hides a
        # later run's import, imports the CLI without pulling in scipy or numba,
        # loads the estimators and the fitter only for the runs that use them,
        # and runs a campaign without a thread pool (concurrent.futures, with
        # its logging and queue).
        env = process_env()
        run_loads = {}
        for command, name in cli.TASKS:
            config = small_campaign if command == "campaign" else config_dir / f"{name}.json"
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(config_dir),
                                   str(tmp_path / command / name), command, str(config),
                                   *ALL_CONFIGS],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            seen = json.loads(proc.stdout.splitlines()[-1])
            assert seen["import"] == [] and seen["load_scenario"] == [], (command, name)
            run_loads[command, name] = seen["run"]
        assert run_loads == RUN_LOADS

    def test_module_run_as_a_process(self, tmp_path, config_dir, capsys):
        # python -m rydcav.cli exits with main()'s code and prints main()'s
        # stdout and "rydcav: ..." stderr line, one case per exit code
        raw = json.loads((config_dir / "campaign.json").read_text())
        raw.setdefault("probe", {})["n_c"] = 0  # loads, then fails the SNR rule
        no_photons = tmp_path / "no_photons.json"
        no_photons.write_text(json.dumps(raw))
        cases = [
            (0, ["trueness", "--config", str(config_dir / "trueness.json")]),
            (2, ["trueness", "--config", str(tmp_path / "nope.json")]),
            (2, ["simulate", "--config", str(config_dir / "trueness.json")]),
            (3, ["campaign", "--config", str(config_dir / "campaign.json"), "--seed", "-1"]),
            (1, ["campaign", "--config", str(no_photons)]),
        ]
        for i, (code, argv) in enumerate(cases):
            proc = subprocess.run([sys.executable, "-m", "rydcav.cli", *argv,
                                   "--out", str(tmp_path / f"process{i}")],
                                  capture_output=True, text=True, env=process_env())
            try:
                got = run_cli([*argv, "--out", str(tmp_path / f"main{i}")])
            except SystemExit as exc:
                got = exc.code
            out, err = capsys.readouterr()
            assert (proc.returncode, got) == (code, code), proc.stderr
            said = [line for line in err.splitlines() if line.startswith("rydcav: ")]
            assert len(said) == (code != 0), err
            assert [line for line in proc.stderr.splitlines()
                    if line.startswith("rydcav: ")] == said
            assert proc.stdout == out
        assert (tmp_path / "process0" / "trueness.json").read_bytes() == \
            (tmp_path / "main0" / "trueness.json").read_bytes()


@pytest.fixture
def small_campaign(tmp_path, config_dir):
    raw = json.loads((config_dir / "campaign.json").read_text())
    raw["scenario"]["shots"] = 2000
    raw["scenario"]["sweep_values"] = [500]
    path = tmp_path / "campaign_small.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture
def fast_flythrough(tmp_path, config_dir):
    raw = json.loads((config_dir / "flythrough.json").read_text())
    path = tmp_path / "flythrough_fast.json"
    path.write_text(json.dumps(raw))
    return path


# SHA-256 of every file but manifest.json that each packaged (command, config)
# pair writes at --seed 14; the campaign's shots.csv is pinned below.
GOLDEN = {
    ("simulate", "flythrough"): {
        "summary.json": "7c7308da61e77db27d9748238f7b66225c9c5cdcde259b0a820dc4ee88cbe034",
        "trace_detuned.csv": "719bb8e2e9832a91dcc1706277e25379a87e2ac0615b289d1159f43aa733b235",
        "trace_resonant.csv": "56bc79324b61e55623c75fae7c32932fd48d6d4a4b2ed3fd3fe04fd51f635cc5",
    },
    ("simulate", "sensitivity"): {
        "sensitivity.csv": "3d169bf074e8d84291b61327081f0a749583c4f0024d36f4dc9bc079b161d830",
        "summary.json": "a8f3c9cf755ddf8516b82209b1ff7fcad477dcc04e7242252dc378d49c3ba17d",
    },
    ("simulate", "power"): {
        "excitation.csv": "f43d2db59980c2a43fbb74b62afc3517e0f9e6cf2b35ee5a1eb6962a1e220cf7",
        "power_n200.csv": "e2a46e98107a84f29b71063bd6f37f941632bc3c864f6efb6c269b8e5cd8a3a4",
        "power_n400.csv": "4d9ae43e29bf7d95e8df4e3f33709e93860f0d453179bb1ef3fbd2f7e1efd9cf",
        "power_n600.csv": "779d8b63d1d903a186a67d56d1a24df12c1631e42e5031e34bd9106f734cd4a6",
        "summary.json": "60b1bd3b93f5b99170291d6045370cd26afba06877cbfd15e6d16689b3fa98af",
    },
    ("simulate", "rabi"): {
        "rabi.csv": "6b977fe2aeab3babeb17e341e7b7fb422ba1f25e048db0969f4a1e3d8c866533",
        "summary.json": "a31ed480d1aa85fd65ac9f8323fc736cb67ac1c86f161d20a08ef9e913ad6879",
    },
    ("fit", "flythrough"): {
        "summary.json": "e516b710859049f86d44ed2e3d558f655271eb5b40b7cc9e6121fe67c215cf09",
        "trace_fit_input.csv": "588c70d002ffafe324f53ab3e1987b04c102f78f7ee1a0f9067c1c05c7dff099",
    },
    ("fit", "power"): {
        "summary.json": "ee8c62092f4e496fbbeb34800b628c7a8a24a09db5fc2516eeead6adba84e587",
    },
    ("trueness", "trueness"): {
        "trueness.json": "32361225466f4cf05730d56313b1aad99125352b23873c94ec81180b427313d4",
    },
}


# The 4 pairs above that build chi(t), as written with the reference chi(t)
# build (tests/test_transmission.py::reference_shift_trace: the libm-sin
# coupling and the population sum g^2 N [(P_p w_p - P_s w_s)/Delta + ...]) in
# place of fly_through_shift_trace: the bytes of GOLDEN before chi(t) took the
# tan form sin^2 (A_s w_s + A_p w_p), which shows that nothing outside the
# chi(t) build moved.
REFERENCE_CHI_GOLDEN = {
    ("simulate", "flythrough"): {
        "summary.json": "faec6e7c2e4b87bc66cdee76ba15e6265332d8b0e9e7a85c942392932d4de374",
        "trace_detuned.csv": "660662049ec1f2fb01d73ddf8476cb7625d03ddd39b4d6600758dc99182fff71",
        "trace_resonant.csv": "e3eab6f44c6ef66a3511a05e6912d015e0f07e8a18742c46d35f8a783300b35f",
    },
    ("simulate", "sensitivity"): {
        "sensitivity.csv": "529ad882e89fc1bc103282b85d160331d4f733f1aeb12f5c076357a82c738884",
        "summary.json": "be371a3693810545f18eb34fb1425d91106c764a69ccf6ba9f052ba7a9813f18",
    },
    ("simulate", "rabi"): {
        "rabi.csv": "7e5dcf7b43cd16be28ee1844e003d6d1cb6d2f7fe7ebb2a50a03ed8ab0c84850",
        "summary.json": "a31ed480d1aa85fd65ac9f8323fc736cb67ac1c86f161d20a08ef9e913ad6879",
    },
    ("fit", "flythrough"): {
        "summary.json": "34710717f678595d474b218b5b68a4094f53f3473e05626137d2c0b2164a8e49",
        "trace_fit_input.csv": "a9b792aba3b2b83bfb5cde1aa420c36823844048789bd3298766d346043b0965",
    },
}


# The 4 pairs above that call the response kernel, as written with the
# per-sample loop kernel (tests/test_kernels.py::loop_filter) in its place.
# The blocked scan moved their outputs by at most 6e-13 deg in the traces
# and 9.2e-10 relative in the fitted N, its half-angle running product by at
# most 6.1e-13 deg and 6e-7 sigma, and its tan steps by at most 5.1e-14 deg
# and 1.2e-6 sigma; with the loop they must stay these bytes, which shows that
# nothing outside the kernel and the closed-form tail after the transit moved.
# The tail's tan form moved the two fly-through pairs here by at most
# 1.1e-16 deg and 1.2e-7 sigma.  The chi(t) build's tan form moved all 4
# pairs, here and in the tables below, by at most 3.2e-14 deg in the traces
# and 1.1e-6 sigma in the fitted N (REFERENCE_CHI_GOLDEN keeps the old bytes
# of GOLDEN through the reference build).
LOOP_GOLDEN = {
    ("simulate", "flythrough"): {
        "summary.json": "98efd3d36d0ef45064a057002d887a353dae101497dc7ea5e6e151d31d87268f",
        "trace_detuned.csv": "c3cbff382fe165cd4891ea53a87ff46aa7279cfd85ea687af27d5110590fcdf0",
        "trace_resonant.csv": "9e21812db673db6b44fa59b8c49a623212686fcc3289060974530b8f3061db99",
    },
    ("simulate", "sensitivity"): {
        "sensitivity.csv": "8890aa7d339d984b4666853f65a8c64fe593bf9aab9ee9d3bec73cfad399817f",
        "summary.json": "1881deac475a1e6e879ce1a5d91765eac9fd3c93f30201875b5479aa23ade510",
    },
    ("simulate", "rabi"): {
        "rabi.csv": "8456bc4133bdfbcc5e4876e37f59fd555630ee828fc75012226ff217e3f26746",
        "summary.json": "a31ed480d1aa85fd65ac9f8323fc736cb67ac1c86f161d20a08ef9e913ad6879",
    },
    ("fit", "flythrough"): {
        "summary.json": "176861ad1932a527d56b1a703174e989157ed540a1bb112c65e3d641a01f30cf",
        "trace_fit_input.csv": "b644f00948d97c3be28b398ff682ebb58e90a953f4df79bc9fd4264d5f09c1e4",
    },
}


# The same 4 pairs as written with the update over the whole trace, pads
# included (tests/test_transmission.py::whole_trace_response), in place of
# transmission_response; and with the loop kernel as well.  Filling the pads
# in closed form moved their outputs by at most 8.6e-13 deg in the traces and
# 4e-7 sigma in the fitted N; with the whole-trace update they must stay these
# bytes, which shows that nothing outside transmission_response moved.  The
# whole-trace-and-loop table calls neither the blocked scan nor the tail, so
# it kept its bytes when both took the tan form; it moved with chi(t).
WHOLE_TRACE_GOLDEN = {
    ("simulate", "flythrough"): {
        "summary.json": "353ee9e893388382aefc21608779eb0133518815a5ac568a42f4fe650ea9adc2",
        "trace_detuned.csv": "f67aa227dcc843cf2d50f36a511f7f5baee2872a320be92d7ead50b95a9926aa",
        "trace_resonant.csv": "a4de62029447d5ff59f67ff751ead289f8e397f66966c7472db96847a3699b0d",
    },
    ("simulate", "sensitivity"): {
        "sensitivity.csv": "d385253515201ba33c731391f534d860eb52a4ca8fb34e8369a7ce171a29c749",
        "summary.json": "856f66ae22cbb1db3cf46bd26651e95aa24b0afd1768edd6ca7967b49b864c31",
    },
    ("simulate", "rabi"): {
        "rabi.csv": "e6e325e3e18769ab5322027b188d1388e895277162e990db8a9329abe4a1b9c2",
        "summary.json": "a31ed480d1aa85fd65ac9f8323fc736cb67ac1c86f161d20a08ef9e913ad6879",
    },
    ("fit", "flythrough"): {
        "summary.json": "ffa9efe469160bc4f275d761dd139592c0bf04bf34ed260ca4ee4a52ec1d6926",
        "trace_fit_input.csv": "ed39a6d051b51cf9422b3b4b296d19ffff3b6bcf12b7d8acf2270f68b3c2c34a",
    },
}

WHOLE_TRACE_LOOP_GOLDEN = {
    ("simulate", "flythrough"): {
        "summary.json": "98efd3d36d0ef45064a057002d887a353dae101497dc7ea5e6e151d31d87268f",
        "trace_detuned.csv": "43184164aa4c44ed296e3376a0de81059fdb09eca0e357387f5ec2aca124ba2b",
        "trace_resonant.csv": "739f6c950d6e43f776c8db45787fb086cf3c6d1e774b54da20ea1be5df489a77",
    },
    ("simulate", "sensitivity"): {
        "sensitivity.csv": "8890aa7d339d984b4666853f65a8c64fe593bf9aab9ee9d3bec73cfad399817f",
        "summary.json": "1881deac475a1e6e879ce1a5d91765eac9fd3c93f30201875b5479aa23ade510",
    },
    ("simulate", "rabi"): {
        "rabi.csv": "8456bc4133bdfbcc5e4876e37f59fd555630ee828fc75012226ff217e3f26746",
        "summary.json": "a31ed480d1aa85fd65ac9f8323fc736cb67ac1c86f161d20a08ef9e913ad6879",
    },
    ("fit", "flythrough"): {
        "summary.json": "80e0b156c511bd76f44bec461464d625310c35883598f14a568021b0f926e315",
        "trace_fit_input.csv": "2e46ad2a1bc41834ca36bc51028ea99104c807e8f93091122b55b55b1d3ce435",
    },
}


def packaged_pair_hashes(out_dir, config_dir, command, config):
    assert run_cli([command, "--config", str(config_dir / f"{config}.json"),
                    "--out", str(out_dir), "--seed", "14"]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out_dir.iterdir() if p.name != "manifest.json"}


@pytest.mark.parametrize("command, config", GOLDEN)
def test_packaged_pair_golden_bytes(tmp_path, config_dir, command, config):
    assert packaged_pair_hashes(tmp_path, config_dir, command, config) == GOLDEN[command, config]


@pytest.mark.parametrize("command, config", GOLDEN)
def test_packaged_pair_golden_bytes_with_rowwise_writer(tmp_path, config_dir, monkeypatch,
                                                        command, config):
    # the same bytes from the csv.writer that write_csv replaced
    monkeypatch.setattr(cli, "write_csv", rowwise_write_csv)
    assert packaged_pair_hashes(tmp_path, config_dir, command, config) == GOLDEN[command, config]


@pytest.mark.parametrize("command, config", REFERENCE_CHI_GOLDEN)
def test_packaged_pair_golden_bytes_with_reference_chi(tmp_path, config_dir, monkeypatch,
                                                       command, config):
    monkeypatch.setattr(transmission, "fly_through_shift_trace", reference_shift_trace)
    assert packaged_pair_hashes(tmp_path, config_dir, command, config) == \
        REFERENCE_CHI_GOLDEN[command, config]


@pytest.mark.parametrize("command, config", LOOP_GOLDEN)
def test_packaged_pair_golden_bytes_with_loop_kernel(tmp_path, config_dir, monkeypatch,
                                                      command, config):
    monkeypatch.setattr(transmission, "response_filter", loop_filter)
    assert packaged_pair_hashes(tmp_path, config_dir, command, config) == \
        LOOP_GOLDEN[command, config]


@pytest.mark.parametrize("command, config", WHOLE_TRACE_GOLDEN)
def test_packaged_pair_golden_bytes_with_whole_trace_response(tmp_path, config_dir,
                                                              monkeypatch, command, config):
    monkeypatch.setattr(transmission, "transmission_response", whole_trace_response)
    assert packaged_pair_hashes(tmp_path, config_dir, command, config) == \
        WHOLE_TRACE_GOLDEN[command, config]


@pytest.mark.parametrize("command, config", WHOLE_TRACE_LOOP_GOLDEN)
def test_packaged_pair_golden_bytes_with_whole_trace_loop(tmp_path, config_dir, monkeypatch,
                                                          command, config):
    monkeypatch.setattr(transmission, "transmission_response", whole_trace_response)
    monkeypatch.setattr(transmission, "response_filter", loop_filter)
    assert packaged_pair_hashes(tmp_path, config_dir, command, config) == \
        WHOLE_TRACE_LOOP_GOLDEN[command, config]


@pytest.mark.parametrize("config", ["flythrough", "power"])
def test_unconverged_fit_warns_on_stderr_only(tmp_path, config_dir, capsys, monkeypatch, config):
    argv = ["fit", "--config", str(config_dir / f"{config}.json"), "--seed", "14", "--out"]
    assert run_cli(argv + [str(tmp_path / "packaged")]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    assert run_cli(argv + [str(tmp_path / "warned")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["rydcav: warning: fit not converged after 1 iterations"]
    # the same exit code and summary.json bytes as without the warning
    monkeypatch.setattr(cli, "_warn_fit", lambda fit: None)
    assert run_cli(argv + [str(tmp_path / "silent")]) == 0
    assert (tmp_path / "warned" / "summary.json").read_bytes() == \
        (tmp_path / "silent" / "summary.json").read_bytes()
    assert not json.loads((tmp_path / "warned" / "summary.json").read_text())["fit"]["converged"]


def test_fit_flythrough_pull_is_calibrated(config_dir):
    # pull (N_fit - N_true) / sigma_N over 200 fixed seeds: a sigma_N that
    # misstates the scatter of the fitted N moves its std out of [0.9, 1.1]
    scenario = load_scenario(config_dir / "flythrough.json")
    pulls = []
    for seed in range(200):
        summary = cli._fit_flythrough(
            dataclasses.replace(scenario, master_seed=seed))["summary.json"]
        assert summary["fit"]["converged"]
        pulls.append((summary["n_atoms_fit"] - summary["n_atoms_true"])
                     / summary["n_atoms_sigma"])
    assert 0.9 <= np.std(pulls, ddof=1) <= 1.1


def test_fit_power_pull_is_calibrated(config_dir):
    # pull (n_crit_fit - n_crit_true) / sigma over 200 fixed seeds, as for
    # the fly-through fit
    scenario = load_scenario(config_dir / "power.json")
    pulls = []
    for seed in range(200):
        summary = cli._fit_power(
            dataclasses.replace(scenario, master_seed=seed))["summary.json"]
        assert summary["fit"]["converged"]
        pulls.append((summary["n_crit_fit"] - summary["n_crit_true"])
                     / summary["fit"]["uncertainties"]["n_crit"])
    assert 0.9 <= np.std(pulls, ddof=1) <= 1.1


def test_fit_on_a_bound_warns(capsys):
    fit = fitting.FitResult(params={"a": 0.0, "b": 1.0}, covariance=np.eye(2),
                            residual_norm=1.0, iterations=3, converged=True,
                            boundary_active={"a": True, "b": False})
    cli._warn_fit(fit)
    assert capsys.readouterr().err == "rydcav: warning: fit on a bound: a\n"
    cli._warn_fit(dataclasses.replace(fit, converged=False))
    assert capsys.readouterr().err == \
        "rydcav: warning: fit not converged after 3 iterations; on a bound: a\n"


def test_fit_of_an_empty_cavity_exit_0(tmp_path, config_dir):
    # no atoms is a valid cloud: the fit starts on its bound N = 0, and its
    # Jacobian steps inward from there instead of to a negative atom number
    raw = json.loads((config_dir / "flythrough.json").read_text())
    raw["ensemble"]["n_atoms"] = 0
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_atoms_true"] == 0 and summary["fit"]["converged"]
    assert 0.0 <= summary["n_atoms_fit"] <= 5.0 * summary["n_atoms_sigma"]


SHOTS_GOLDEN = "961b50fa66c747e1512089d2f82daba1a20c94f0c22caf9426cb707b9d32f946"
# every output of the packaged campaign at its own seed, 14
CAMPAIGN_GOLDEN = {
    "precision_vs_photon_number.csv":
        "bdee1ebbafaae430cf89c16de654b54c09875a249235fba1b4217ec10e3af14b",
    "shots.csv": SHOTS_GOLDEN,
    "summary.json": "6252298f5ff47d5b6ff58be7eb60cd833601b2ad7c4b1147e4b1a07ae6f973aa",
}


def packaged_shots_digest(out_dir, config_dir):
    assert run_cli(["campaign", "--config", str(config_dir / "campaign.json"),
                    "--out", str(out_dir)]) == 0
    return hashlib.sha256((out_dir / "shots.csv").read_bytes()).hexdigest()


class TestCampaignCli:
    def test_packaged_campaign_golden_bytes(self, tmp_path, config_dir):
        # shots.csv of the packaged campaign (master_seed 14), pinned byte
        # for byte: a change to the RNG streams, the physics or the CSV
        # formatting shows up here.
        assert packaged_shots_digest(tmp_path, config_dir) == SHOTS_GOLDEN

    def test_packaged_campaign_golden_files(self, tmp_path, config_dir):
        # the per-setting standard deviations and the analytic precision
        # curve, pinned next to shots.csv
        assert packaged_pair_hashes(tmp_path, config_dir, "campaign", "campaign") == \
            CAMPAIGN_GOLDEN

    def test_packaged_campaign_golden_bytes_with_rowwise_writer(self, tmp_path, config_dir,
                                                                monkeypatch):
        # shots.csv is streamed through write_csv_blocks, the other files
        # through write_csv
        monkeypatch.setattr(cli, "write_csv", rowwise_write_csv)
        monkeypatch.setattr(cli, "write_csv_blocks", rowwise_write_csv_blocks)
        assert packaged_pair_hashes(tmp_path, config_dir, "campaign", "campaign") == \
            CAMPAIGN_GOLDEN

    def test_block_order_invariance(self, tmp_path, config_dir, monkeypatch):
        # three blocks of one setting, computed last to first on the second run
        raw = json.loads((config_dir / "campaign.json").read_text())
        raw["scenario"].update(shots=2 * experiments.BLOCK_SIZE + 5, sweep_values=[500])
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(raw))
        out1 = tmp_path / "in_order"
        out2 = tmp_path / "last_first"
        assert run_cli(["campaign", "--config", str(cfg), "--out", str(out1)]) == 0
        compute_blocks_last_first(monkeypatch)
        assert run_cli(["campaign", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "shots.csv").read_bytes() == (out2 / "shots.csv").read_bytes()

    def test_block_order_invariance_across_settings(self, tmp_path, config_dir, monkeypatch):
        # six blocks, two per setting: every output file holds its bytes when
        # the blocks are computed last to first
        raw = json.loads((config_dir / "campaign.json").read_text())
        raw["scenario"].update(shots=experiments.BLOCK_SIZE + 5, sweep_values=[100, 300, 500])
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(raw))
        outputs = []
        for order in ("in_order", "last_first"):
            if order == "last_first":
                compute_blocks_last_first(monkeypatch)
            out = tmp_path / order
            assert run_cli(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
        assert len(outputs[0]) == 3 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("out_exists", [True, False], ids=["existing-dir", "new-dir"])
    def test_failing_block_leaves_no_output(self, tmp_path, config_dir, monkeypatch, capsys,
                                            out_exists):
        raw = json.loads((config_dir / "campaign.json").read_text())
        raw["scenario"].update(shots=100, sweep_values=[100, 200, 300])  # three blocks
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out" if out_exists else tmp_path / "new" / "out"
        if out_exists:
            out.mkdir()
        block, seen = experiments._campaign_block, []

        def third_fails(scenario, chi1, n_crit, b, *args):
            if b == 2:  # after the first two blocks have gone to shots.csv
                seen.append((out / "shots.csv").exists())
                raise RuntimeError("block 2 failed")
            return block(scenario, chi1, n_crit, b, *args)

        monkeypatch.setattr(experiments, "_campaign_block", third_fails)
        assert run_cli(["campaign", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "rydcav: error: block 2 failed\n"
        assert seen == [True]
        if out_exists:
            assert list(out.iterdir()) == []
        else:
            assert not (tmp_path / "new").exists()

    def test_memory_independent_of_setting_count(self, tmp_path, config_dir):
        raw = json.loads((config_dir / "campaign.json").read_text())

        def peak(settings):
            raw["scenario"].update(shots=experiments.BLOCK_SIZE + 1000,
                                   sweep_values=[100.0 + 50 * k for k in range(settings)])
            cfg = tmp_path / f"campaign{settings}.json"
            cfg.write_text(json.dumps(raw))
            tracemalloc.start()
            try:
                assert cli.main(["campaign", "--config", str(cfg),
                                 "--out", str(tmp_path / f"out{settings}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations
        assert peak(10) <= 1.2 * peak(2)

    def test_rerun_reproducible(self, tmp_path, small_campaign):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli(["campaign", "--config", str(small_campaign),
                            "--out", str(out)]) == 0
        for name in ("shots.csv", "precision_vs_photon_number.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_seed_override_changes_shots(self, tmp_path, small_campaign):
        outa = tmp_path / "sa"
        outb = tmp_path / "sb"
        assert run_cli(["campaign", "--config", str(small_campaign),
                        "--out", str(outa), "--seed", "101"]) == 0
        assert run_cli(["campaign", "--config", str(small_campaign),
                        "--out", str(outb), "--seed", "102"]) == 0
        assert (outa / "shots.csv").read_bytes() != (outb / "shots.csv").read_bytes()
        # the analytic precision curve does not depend on the seed
        assert (
            (outa / "precision_vs_photon_number.csv").read_bytes()
            == (outb / "precision_vs_photon_number.csv").read_bytes()
        )

    def test_largest_seed_is_kept(self, tmp_path, small_campaign):
        # 2**64 - 1, the largest Philox key, is a seed by --seed and in the
        # config alike (2**64 is rejected on both paths: it would wrap to 0)
        seed = 2**64 - 1
        raw = json.loads(small_campaign.read_text())
        raw["scenario"]["master_seed"] = seed
        config = tmp_path / "largest_seed.json"
        config.write_text(json.dumps(raw))
        outa, outb = tmp_path / "sa", tmp_path / "sb"
        assert run_cli(["campaign", "--config", str(small_campaign), "--out", str(outa),
                        "--seed", str(seed)]) == 0
        assert run_cli(["campaign", "--config", str(config), "--out", str(outb)]) == 0
        assert (outa / "shots.csv").read_bytes() == (outb / "shots.csv").read_bytes()
        for out in (outa, outb):
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed

    def test_out_defaults_to_cwd(self, tmp_path, small_campaign, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["campaign", "--config", str(small_campaign)]) == 0
        assert (tmp_path / "shots.csv").exists()
