"""Command-line entry point.

Subcommands: ``simulate`` (figure-style scenario datasets), ``fit``
(estimators run on data generated from the same config), ``campaign``
(single-shot Monte Carlo), ``trueness`` (systematic error budget).

Exit codes: 0 success, 1 runtime/model failure, 2 invalid config,
3 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, estimation, experiments
from .configio import ConfigError, RunManifest, load_scenario, write_csv, write_json

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_USAGE = 3

OUT_DIR_ENV = "RYDCAV_OUT_DIR"


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
        p.add_argument("--out", default=None,
                       help=f"output directory (default: cwd, or ${OUT_DIR_ENV})")
        p.add_argument("--seed", type=int, default=None,
                       help="override scenario.master_seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for campaign blocks")
    return parser


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _trace_columns(tr):
    return {
        "time_s": tr["times"],
        "amplitude": tr["amp"],
        "phase_rad": tr["phase_rad"],
        "dphi_deg": tr["dphi_deg"],
        "damp": tr["damp"],
        "inst_dphi_deg": tr["inst_dphi_deg"],
        "inst_damp": tr["inst_damp"],
    }


def _run_simulate(scenario, out, manifest):
    stype = scenario.type
    if stype == "flythrough":
        res = experiments.run_flythrough(scenario)
        for tr in res["traces"]:
            tag = "resonant" if tr["delta_m"] == 0 else "detuned"
            manifest.add(write_csv(out / f"trace_{tag}.csv", _trace_columns(tr)), out)
        summary = {
            "name": res["name"],
            "t_cen_s": res["t_cen"],
            "tau_c_s": res["tau_c"],
            "traces": [
                {k: tr[k] for k in ("delta_m", "t_extremum", "extremum_delay",
                                    "dphi_extremum_deg")}
                for tr in res["traces"]
            ],
        }
    elif stype == "sensitivity":
        res = experiments.run_sensitivity_sweep(scenario)
        manifest.add(
            write_csv(out / "sensitivity.csv", {
                "n_atoms": res["n_atoms"],
                "dphi_deg": res["dphi_deg"],
                "mcp_signal_vns": res["mcp_signal"],
                "n_cavity": res["n_cavity"],
            }),
            out,
        )
        summary = {k: res[k] for k in (
            "name", "phase_sensitivity_deg_per_atom",
            "mcp_sensitivity_vns_per_atom", "linearity_residual_max",
        )}
    elif stype == "power":
        res = experiments.run_power_sweep(scenario)
        for ds in res["datasets"]:
            manifest.add(
                write_csv(out / f"power_n{int(ds['n_atoms'])}.csv", {
                    "n_c": ds["n_c"],
                    "dphi_deg": ds["dphi_deg"],
                    "dphi_true_deg": ds["dphi_true_deg"],
                    "sigma_deg": ds["sigma_deg"],
                }),
                out,
            )
        manifest.add(
            write_csv(out / "excitation.csv", {
                "n_c": res["n_c"], "excited_fraction_scaled": res["excitation"],
            }),
            out,
        )
        summary = {"name": res["name"], "n_crit_true": res["n_crit_true"],
                   "excitation_scale": res["excitation_scale"]}
    elif stype == "rabi":
        res = experiments.run_rabi_scenario(scenario)
        manifest.add(
            write_csv(out / "rabi.csv", {
                "rabi_ratio": res["rabi_ratio"],
                "p_occupation": res["p_occupation"],
                "dphi_pure_deg": res["dphi_pure_deg"],
                "dphi_depolarized_deg": res["dphi_depolarized_deg"],
            }),
            out,
        )
        summary = {"name": res["name"]}
    else:
        raise ConfigError(
            f"scenario.type: {stype!r} is not simulatable (use fit/campaign/trueness)"
        )
    manifest.add(write_json(out / "summary.json", summary), out)


def _run_fit(scenario, out, manifest):
    stype = scenario.type
    if stype == "power":
        res = experiments.run_power_sweep(scenario)
        datasets = [
            {"n_c": ds["n_c"], "dphi_deg": ds["dphi_deg"], "sigma_deg": ds["sigma_deg"]}
            for ds in res["datasets"]
        ]
        fit = estimation.fit_power_dependence(datasets, scenario.kappa)
        summary = {
            "name": scenario.name,
            "fit": fit.to_dict(),
            "n_crit_true": res["n_crit_true"],
            "n_crit_fit": fit["n_crit"],
        }
    elif stype == "flythrough":
        rng = experiments.block_rng(scenario.master_seed, 0)
        kappa = scenario.kappa
        from .detection import snr
        from .transmission import simulate_flythrough

        kw = dict(
            transit_decay=scenario.flags.get("transit_decay", True),
            extended_cloud=scenario.flags.get("extended_cloud", False),
        )
        trace, dphi = simulate_flythrough(
            scenario.ensemble, scenario.cavity, scenario.transitions,
            scenario.probe.delta_m, kappa, **kw,
        )
        shots = scenario.shots
        r = float(snr(scenario.probe.n_c, scenario.cavity.kappa_out,
                      trace.dt, scenario.noise.n_noise))
        sigma_deg = float(np.degrees(1.0 / np.sqrt(r * shots)))
        noisy = dphi + sigma_deg * rng.standard_normal(dphi.shape)
        fit = estimation.fit_atom_number(
            [{
                "delta_m": scenario.probe.delta_m,
                "times": trace.times,
                "amplitude": trace.amplitude,
                "phase": np.unwrap(trace.phase) + np.radians(noisy - dphi),
                "sigma_amp": np.radians(sigma_deg),
                "sigma_phase": np.radians(sigma_deg),
            }],
            scenario.ensemble, scenario.cavity, scenario.transitions, kappa, **kw,
        )
        manifest.add(
            write_csv(out / "trace_fit_input.csv", {
                "time_s": trace.times, "dphi_deg": noisy, "dphi_model_deg": dphi,
            }),
            out,
        )
        summary = {
            "name": scenario.name,
            "fit": fit.to_dict(),
            "n_atoms_true": scenario.ensemble.n_atoms,
            "n_atoms_fit": fit["n_atoms"],
            "n_atoms_sigma": fit.uncertainties["n_atoms"],
        }
    else:
        raise ConfigError(f"scenario.type: {stype!r} has no fit task")
    manifest.add(write_json(out / "summary.json", summary), out)


def _run_campaign(scenario, out, manifest, threads):
    res = experiments.run_single_shot_campaign(scenario, threads=threads)
    rec = res["records"]
    manifest.add(
        write_csv(out / "shots.csv", {
            "shot_id": rec["shot_id"],
            "mean_n": rec["mean_n"],
            "n_prepared": rec["n_prep"],
            "dphi_deg": rec["dphi_deg"],
            "n_estimated": rec["n_est"],
            "s1_vns": rec["s1"],
            "s2_vns": rec["s2"],
            "s_ratio": rec["s_r"],
            "p_fraction": rec["p_p"],
            "n_mcp_estimated": rec["n_mcp_est"],
        }),
        out,
    )
    curve = res["photon_curve"]
    manifest.add(
        write_csv(out / "precision_vs_photon_number.csv", {
            "n_c": curve["n_c"],
            "sigma_dphi_rad": curve["sigma_dphi_rad"],
            "sigma_n": curve["sigma_n"],
        }),
        out,
    )
    manifest.add(
        write_json(out / "summary.json", {
            "name": res["name"],
            "per_setting": res["per_setting"],
            "n_crit": res["n_crit"],
            "chi_per_atom_rad_s": res["chi_per_atom"],
        }),
        out,
    )


def _run_trueness(scenario, out, manifest):
    flags = scenario.flags
    report = experiments.trueness_ledger(
        scenario.cavity,
        sigma_z=scenario.ensemble.sigma_z or 0.6e-3,
        sigma_x=scenario.ensemble.sigma_x or 0.3e-3,
        n_atoms=max(scenario.ensemble.n_atoms, 1),
        delta_plus=scenario.transitions.delta_plus(scenario.cavity.length_z / 2),
        delta_minus=scenario.transitions.delta_minus(scenario.cavity.length_z / 2),
        detuning_rel_uncertainty=flags.get("detuning_rel_uncertainty", 0.007),
        pointlike_uncertainty=flags.get("pointlike_uncertainty", 0.003),
        spacing=flags.get("interaction_spacing_m", 75e-6),
    )
    manifest.add(write_json(out / "trueness.json", report.to_dict()), out)
    print(report.table())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if args.seed is not None:
            scenario.master_seed = args.seed
        out = _out_dir(args)
        manifest = RunManifest.start(args.command, args.config, scenario.master_seed)
        if args.command == "simulate":
            _run_simulate(scenario, out, manifest)
        elif args.command == "fit":
            _run_fit(scenario, out, manifest)
        elif args.command == "campaign":
            _run_campaign(scenario, out, manifest, max(args.threads, 1))
        elif args.command == "trueness":
            _run_trueness(scenario, out, manifest)
        manifest.write(out)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"rydcav: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # model/runtime failures
        print(f"rydcav: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
