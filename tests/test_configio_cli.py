import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydcav import EnsembleState, Flags, McpModel, NoiseChain, ProbeConfig, cli
from rydcav.params import TWO_PI
from rydcav.configio import (
    FLAGS,
    SCENARIO,
    SECTIONS,
    ConfigError,
    load_scenario,
    write_csv,
    write_json,
)

ALL_CONFIGS = ("flythrough", "sensitivity", "power", "rabi", "campaign", "trueness")


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
        assert sc.transitions.delta_plus(sc.cavity.length_z / 2) == pytest.approx(
            -TWO_PI * 8e6
        )

    def test_flag_hz_conversion(self, config_dir):
        sc = load_scenario(config_dir / "power.json")
        assert sc.flags.g_eff == pytest.approx(TWO_PI * 12.9e3)

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
        raw["scenario"]["flags"]["_unit"] = [1, 2]
        path = tmp_path / "commented.json"
        path.write_text(json.dumps(raw))
        sc, ref = load_scenario(path), load_scenario(config_dir / "power.json")
        assert sc.cavity == ref.cavity
        assert sc.flags == ref.flags

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
        assert sc.cavity.kappa_in == 0.0
        assert sc.ensemble == EnsembleState(n_atoms=300.0)
        assert sc.probe == ProbeConfig()
        assert sc.noise == NoiseChain()
        assert sc.mcp == McpModel()
        assert sc.flags == Flags()
        assert (sc.shots, sc.master_seed, sc.sweep_values) == (1, 0, [])


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tables = [("scenario", SCENARIO), ("scenario.flags", FLAGS)]
    tables += [(name, table) for name, (_build, table) in SECTIONS.items()]
    for section, table in tables:
        assert f"`{section}`" in readme
        for key, *_ in table:
            assert f"`{key}`" in readme, f"{section}.{key}"


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

    def test_json_handles_numpy_types(self, tmp_path):
        path = write_json(tmp_path / "t.json", {
            "a": np.float64(1.5), "b": np.arange(3), "c": np.bool_(True),
        })
        back = json.loads(path.read_text())
        assert back == {"a": 1.5, "b": [0, 1, 2], "c": True}


# ---------------------------------------------------------------------------
# CLI


def run_cli(argv):
    return cli.main(argv)


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

    @pytest.mark.parametrize("argv", [["--threads", "0"], ["--threads", "-3"],
                                      ["--seed", "-1"]])
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
        (("scenario", "flags"), [1, 2], "scenario.flags"),
        (("scenario", "flags", "two_transitions"), "false", "scenario.flags.two_transitions"),
        (("scenario", "flags", "photon_grid"), "abc", "scenario.flags.photon_grid"),
        (("scenario", "flags", "n_crit"), "4e4", "scenario.flags.n_crit"),
        (("scenario", "sweep_values"), ["200"], "scenario.sweep_values[0]"),
        (("scenario", "sweep_values"), [True], "scenario.sweep_values[0]"),
        (("scenario", "sweep_values"), [100, None], "scenario.sweep_values[1]"),
        pytest.param(("probe", "n_c"), 10 ** 400, "probe.n_c", id="int-beyond-float"),
    ])
    def test_malformed_config_exit_2(self, tmp_path, config_dir, capsys, keys, value, path):
        raw = json.loads((config_dir / "campaign.json").read_text())
        section = raw
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=re.escape(path + ":")):
            load_scenario(bad)
        code = run_cli(["campaign", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: {path}:" in capsys.readouterr().err

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

    def test_power_sweep_repeated_value_exit_2(self, tmp_path, config_dir, capsys):
        raw = json.loads((config_dir / "power.json").read_text())
        raw["scenario"]["sweep_values"] = [200, 400, 200.0]
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: scenario.sweep_values:" in capsys.readouterr().err
        assert not list(out.glob("power_n*.csv"))

    def test_empty_tmax_window_exit_1(self, tmp_path, config_dir, capsys):
        raw = json.loads((config_dir / "sensitivity.json").read_text())
        raw["scenario"]["flags"]["tmax_window"] = 1e-9
        cfg = tmp_path / "sensitivity.json"
        cfg.write_text(json.dumps(raw))
        code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "t_max window" in capsys.readouterr().err

    def test_manifest_contents(self, tmp_path, config_dir):
        run_cli(["trueness", "--config", str(config_dir / "trueness.json"),
                 "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "trueness"
        assert "trueness.json" in manifest["outputs"]
        assert len(manifest["config_sha256"]) == 64

    def test_import_needs_numpy_only(self):
        # A fresh interpreter that finds the package tested here imports the
        # CLI without pulling in scipy or numba.
        code = (
            "import sys, rydcav.cli; "
            "print(sorted(m for m in ('scipy', 'numba') if m in sys.modules))"
        )
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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


class TestCampaignCli:
    def test_packaged_campaign_golden_bytes(self, tmp_path, config_dir):
        # shots.csv of the packaged campaign (master_seed 14), pinned byte
        # for byte: a change to the RNG streams, the physics or the CSV
        # formatting shows up here.
        assert run_cli(["campaign", "--config", str(config_dir / "campaign.json"),
                        "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "shots.csv").read_bytes()).hexdigest()
        assert digest == "961b50fa66c747e1512089d2f82daba1a20c94f0c22caf9426cb707b9d32f946"

    def test_thread_count_invariance(self, tmp_path, small_campaign):
        out1 = tmp_path / "t1"
        out4 = tmp_path / "t4"
        assert run_cli(["campaign", "--config", str(small_campaign),
                        "--out", str(out1), "--threads", "1"]) == 0
        assert run_cli(["campaign", "--config", str(small_campaign),
                        "--out", str(out4), "--threads", "4"]) == 0
        assert (out1 / "shots.csv").read_bytes() == (out4 / "shots.csv").read_bytes()

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

    def test_out_dir_env(self, tmp_path, small_campaign, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
        assert run_cli(["campaign", "--config", str(small_campaign)]) == 0
        assert (target / "shots.csv").exists()
