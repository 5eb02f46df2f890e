"""Command-line entry point.

Subcommands: ``simulate`` (figure-style scenario datasets), ``fit``
(estimators run on data generated from the same config), ``campaign``
(single-shot Monte Carlo), ``trueness`` (systematic error budget).  The
config's ``scenario.type`` picks the run: :data:`TASKS` holds one task per
supported (command, type) pair, and every other pair is a config error.

Exit codes: 0 success, 1 runtime/model failure, 2 invalid config or a
(command, type) pair without a task, 3 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, detection, experiments, transmission
from .configio import (ConfigError, RunManifest, load_scenario, write_csv, write_csv_blocks,
                       write_json)
from .params import within

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rydcav", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"rydcav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "run a scenario and write its datasets"),
        ("fit", "run the matching estimator on scenario-generated data"),
        ("campaign", "single-shot Monte Carlo campaign"),
        ("trueness", "assemble the systematic error budget"),
    ):
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None,
                       help="override scenario.master_seed")
        if name == "campaign":
            p.add_argument("--threads", type=int, default=1, choices=[1],
                           help="1 only, kept for perfbench/run.py: blocks run in one thread")
    return parser


# ---------------------------------------------------------------------------
# tasks: each returns {file name: CSV columns (.csv) or JSON payload (.json)}


def _simulate_flythrough(scenario):
    res = experiments.run_flythrough(scenario)
    files = {
        f"trace_{'resonant' if tr['delta_m'] == 0 else 'detuned'}.csv": {
            "time_s": tr["times"], "amplitude": tr["amp"],
            **{k: tr[k] for k in ("phase_rad", "dphi_deg", "damp", "inst_dphi_deg", "inst_damp")},
        }
        for tr in res["traces"]
    }
    files["summary.json"] = {
        "name": res["name"],
        "t_cen_s": res["t_cen"],
        "tau_c_s": res["tau_c"],
        "traces": [
            {k: tr[k] for k in ("delta_m", "t_extremum", "extremum_delay", "dphi_extremum_deg")}
            for tr in res["traces"]
        ],
    }
    return files


def _simulate_sensitivity(scenario):
    res = experiments.run_sensitivity_sweep(scenario)
    return {
        "sensitivity.csv": {
            "n_atoms": res["n_atoms"],
            "dphi_deg": res["dphi_deg"],
            "mcp_signal_vns": res["mcp_signal"],
            "n_cavity": res["n_cavity"],
        },
        "summary.json": {k: res[k] for k in (
            "name", "phase_sensitivity_deg_per_atom",
            "mcp_sensitivity_vns_per_atom", "linearity_residual_max",
        )},
    }


def _simulate_power(scenario):
    if len(set(scenario.sweep_values)) < len(scenario.sweep_values):
        raise ConfigError(f"scenario.sweep_values: {scenario.sweep_values} repeats a "
                          "value; each value names its own power_n<value>.csv")
    res = experiments.run_power_sweep(scenario)
    files = {
        f"power_n{np.format_float_positional(ds['n_atoms'], trim='-')}.csv": {
            "n_c": ds["n_c"],
            "dphi_deg": ds["dphi_deg"],
            "dphi_true_deg": ds["dphi_true_deg"],
            "sigma_deg": ds["sigma_deg"],
        }
        for ds in res["datasets"]
    }
    files["excitation.csv"] = {"n_c": res["n_c"], "excited_fraction_scaled": res["excitation"]}
    files["summary.json"] = {"name": res["name"], "n_crit_true": res["n_crit_true"],
                             "excitation_scale": res["excitation_scale"]}
    return files


def _simulate_rabi(scenario):
    res = experiments.run_rabi_scenario(scenario)
    return {
        "rabi.csv": {k: res[k] for k in (
            "rabi_ratio", "p_occupation", "dphi_pure_deg", "dphi_depolarized_deg",
        )},
        "summary.json": {"name": res["name"]},
    }


def _warn_fit(fit):
    """One stderr line when ``fit`` did not converge or ends on a bound."""
    problems = [] if fit.converged else [f"not converged after {fit.iterations} iterations"]
    on_bound = [name for name, active in fit.boundary_active.items() if active]
    if on_bound:
        problems.append("on a bound: " + ", ".join(on_bound))
    if problems:
        print(f"rydcav: warning: fit {'; '.join(problems)}", file=sys.stderr)


def _fit_flythrough(scenario):
    from . import estimation  # loaded by the fit tasks only

    rng = experiments.block_rng(scenario.master_seed, 0)
    kappa = scenario.kappa
    trace, dphi = transmission.simulate_flythrough(
        scenario.ensemble, scenario.cavity, scenario.transitions,
        scenario.probe.delta_m, kappa, transit_decay=scenario.transit_decay,
    )
    r = float(detection.snr(scenario.probe.n_c, scenario.cavity.kappa_out,
                            trace.dt, scenario.noise.n_noise))
    sigma_deg = float(np.degrees(detection.phase_precision(r * scenario.shots)))
    sigma = np.radians(sigma_deg)
    # both quadratures are noisy; the amplitude draws come after the phase
    # draws, so the phase data do not depend on them
    noisy = dphi + sigma_deg * rng.standard_normal(dphi.shape)
    fit = estimation.fit_atom_number(
        [{
            "delta_m": scenario.probe.delta_m,
            "times": trace.times,
            "amplitude": trace.amplitude + sigma * rng.standard_normal(dphi.shape),
            "phase": trace.unwrapped_phase + np.radians(noisy - dphi),
            "sigma_amp": sigma,
            "sigma_phase": sigma,
        }],
        scenario.ensemble, scenario.cavity, scenario.transitions, kappa,
        transit_decay=scenario.transit_decay,
    )
    _warn_fit(fit)
    return {
        "trace_fit_input.csv": {"time_s": trace.times, "dphi_deg": noisy,
                                "dphi_model_deg": dphi},
        "summary.json": {
            "name": scenario.name,
            "fit": dataclasses.asdict(fit),
            "n_atoms_true": scenario.ensemble.n_atoms,
            "n_atoms_fit": fit["n_atoms"],
            "n_atoms_sigma": fit.uncertainties["n_atoms"],
        },
    }


def _fit_power(scenario):
    from . import estimation

    res = experiments.run_power_sweep(scenario)
    datasets = [{k: ds[k] for k in ("n_c", "dphi_deg", "sigma_deg")} for ds in res["datasets"]]
    fit = estimation.fit_power_dependence(datasets, scenario.kappa)
    _warn_fit(fit)
    return {"summary.json": {
        "name": scenario.name,
        "fit": dataclasses.asdict(fit),
        "n_crit_true": res["n_crit_true"],
        "n_crit_fit": fit["n_crit"],
    }}


# shots.csv header -> campaign record key
SHOTS_CSV = {"shot_id": "shot_id", "mean_n": "mean_n", "n_prepared": "n_prep",
             "dphi_deg": "dphi_deg", "n_estimated": "n_est", "s1_vns": "s1", "s2_vns": "s2",
             "s_ratio": "s_r", "p_fraction": "p_p", "n_mcp_estimated": "n_mcp_est"}


def _campaign(scenario):
    per_setting = []
    blocks = experiments.campaign_blocks(scenario, per_setting)
    first = next(blocks)  # setting and model errors raise here, before any output
    chi1, n_crit = experiments.effective_chi_per_atom(scenario)
    return {  # shots.csv is streamed first, so per_setting is full by summary.json
        "shots.csv": ({h: b[k] for h, k in SHOTS_CSV.items()} for b in chain([first], blocks)),
        "precision_vs_photon_number.csv": experiments.precision_vs_photon_number(scenario),
        "summary.json": {"name": scenario.name, "per_setting": per_setting, "n_crit": n_crit,
                         "chi_per_atom_rad_s": chi1},
    }


def _trueness(scenario):
    report = experiments.trueness_ledger(scenario)
    print(report.table())
    return {"trueness.json": report.to_dict()}


TASKS = {
    ("simulate", "flythrough"): _simulate_flythrough,
    ("simulate", "sensitivity"): _simulate_sensitivity,
    ("simulate", "power"): _simulate_power,
    ("simulate", "rabi"): _simulate_rabi,
    ("fit", "flythrough"): _fit_flythrough,
    ("fit", "power"): _fit_power,
    ("campaign", "campaign"): _campaign,
    ("trueness", "trueness"): _trueness,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed_bound = experiments.Scenario.BOUNDS["master_seed"]
    if args.seed is not None and not within(args.seed, seed_bound):
        parser.error(f"--seed must be {seed_bound}, got {args.seed}")
    try:
        scenario = load_scenario(args.config)
        if args.seed is not None:  # a new scenario, so its bounds are checked
            scenario = dataclasses.replace(scenario, master_seed=args.seed)
        task = TASKS.get((args.command, scenario.type))
        if task is None:
            types = ", ".join(t for c, t in TASKS if c == args.command)
            raise ConfigError(f"scenario.type: {scenario.type!r} has no {args.command} "
                              f"task; {args.command} runs type {types}")
        manifest = RunManifest.start(args.command, args.config, scenario.master_seed)
        files = task(scenario)
        # made after the task and removed if a write fails: a failed run leaves no new directory
        out = args.out
        made = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
        out.mkdir(parents=True, exist_ok=True)
        try:
            for name, payload in files.items():
                # looked up per call, so a wrapped writer is honoured
                write = (write_json if name.endswith(".json") else
                         write_csv if isinstance(payload, dict) else write_csv_blocks)
                manifest.add(write(out / name, payload), out)
            manifest.write(out)
        except BaseException:
            if made is not None:
                shutil.rmtree(made, ignore_errors=True)
            raise
    except ConfigError as exc:
        print(f"rydcav: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # model/runtime failures
        print(f"rydcav: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
