"""rydcav benchmark: four workloads, untraced end-to-end metrics and a traced
per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

    cli_small   one fresh ``rydcav`` process per op, cycling through the seven
                short packaged subcommand/config pairs
    campaign    one fresh ``rydcav campaign`` process per op (100 000 shots)
    long_trace  in-process dt-convergence study of one fly-through trace,
                616 to 157 517 samples
    trace_fit   in-process atom-number, entry-time and power fits on noisy
                traces drawn from the seed; not listed in BENCHMARK.json,
                because its fit-convergence check fails on some ops

Load is a closed loop with one client: the next op starts when the previous
one has finished and been checked.  The process and every child it starts
run on one CPU.  Each timed piece of work is bracketed by calibrations,
fixed pieces of work of the same kind, and its wall time is scaled to the
calibration's reference time (see ``Speed``), so that the machine's speed
drift cancels out.
With ``--trace 0`` the ops run untraced for the whole ``--seconds`` and the
last line of output is a JSON object with the end-to-end metrics.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced (see tracing.py); the JSON then holds the per-layer metrics.  Every
op's output is checked; a failed check counts towards the error rate.

Metric names and units are read from BENCHMARK.json at the repository root.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
import traceback
from collections import Counter, namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np

from tracing import CALL_SITES, Tracer, install, layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = SRC / "rydcav" / "configs"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 9
# what the ``rydcav`` console script runs
CONSOLE_SCRIPT = "import sys; from rydcav.cli import main; sys.exit(main())"
# a fresh interpreter's set-up: import the CLI and load the workload's configs
SETUP_PROBE = (
    "import sys, rydcav.cli; from rydcav.configio import load_scenario; "
    "[load_scenario(p) for p in sys.argv[1:]]"
)
KERNEL_SIZES = ((10_000, 5), (100_000, 3), (1_000_000, 1))  # (samples, repeats)
CAMPAIGN_THREADS_REPEATS = 3
# calibrations and the wall times that define the reference speed: about
# their median times on the 2-core VM the benchmark was tuned on
LOOP_REF_S = 0.010
BARE_START = [sys.executable, "-I", "-c", "pass"]
BARE_START_REF_S = 0.065

rydcav = None  # imported by main() once src/ is known to exist
START_CPUS = os.sched_getaffinity(0)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Client of spawner.py, which starts and times every child process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, log_path):
        """Run one child to completion; returns the spawner's answer."""
        req = {"argv": argv, "log": str(log_path), "env": child_env(), "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def calibration_loop():
    """Wall time of a fixed in-process loop: interpreter bytecode, float
    formatting and numpy scalar arithmetic, what the in-process workloads
    spend their time on."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(30_000):
        s += (i * 0.5) ** 0.5
    ",".join(repr(x) for x in np.arange(3_000) * 0.1)
    a = np.float64(1.0)
    for _ in range(3_000):
        a = a * np.float64(1.0000001) + np.float64(1e-9)
    return time.perf_counter() - t0


class Speed:
    """Scales wall times to the reference speed.

    The host's CPU speed drifts by 20% and more over seconds to minutes,
    and every timing of a run moves with it.  A timed piece of work is
    bracketed by two calibrations of one kind, and its wall time is
    multiplied by the kind's reference time over their mean.  ``loop`` is
    an in-process loop, for in-process work; ``start`` is a bare interpreter
    that starts and exits in isolated mode, for work in a child process.
    Neither touches rydcav, so a change to the package cannot move them.
    A piece that starts within SHARE_S of the latest calibration, of its
    own kind, reuses it.
    """

    SHARE_S = 0.1
    REF_S = {"loop": LOOP_REF_S, "start": BARE_START_REF_S}

    def __init__(self, spawner):
        self.spawner = spawner
        # kind, wall time and end of the latest calibration
        self.last = (None, None, -np.inf)

    def calibrate(self, kind):
        if kind == "loop":
            wall = calibration_loop()
        else:
            res = self.spawner.run(BARE_START, WORK / "calibration.log")
            wall = res["stop"] - res["start"]
        self.last = (kind, wall, time.perf_counter())
        return wall

    def scaled(self, kind, fn, *args):
        """Run ``fn(*args)`` between calibrations of ``kind``; returns its
        result and the factor that scales a wall time taken inside it."""
        kind_, wall, end = self.last
        fresh = kind_ == kind and time.perf_counter() - end < self.SHARE_S
        before = wall if fresh else self.calibrate(kind)
        out = fn(*args)
        mean = 0.5 * (before + self.calibrate(kind))
        return out, self.REF_S[kind] / mean


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# failed ops per check, printed with the result so that a new kind of
# failure stays visible beside a known one
FAILURES = Counter()


def report_failure(check, what, detail):
    FAILURES[check] += 1
    print(f"perfbench: check failed: {check}: {what}: {detail}", file=sys.stderr)


# one op: seconds scaled to the reference speed, wall seconds, peak RSS of
# its child process (None in-process), and whether its outputs passed the
# checks
Op = namedtuple("Op", "seconds wall rss_mb ok")


# ---------------------------------------------------------------------------
# CLI workloads: one fresh process per op


class CliWorkload:
    group = 1  # ops per cycle; a measuring phase always ends on a whole cycle
    calibration = "start"  # the Speed calibration that brackets an op
    checks = ("exit code", "manifest")

    def __init__(self, seed, spawner):
        self.rng = np.random.default_rng(seed)
        self.spawner = spawner
        self.out = WORK / "op"

    def command(self, i):
        raise NotImplementedError

    def check_outputs(self, what, child_seed):
        return True

    def op(self, i, tracer, speed):
        cmd, config, extra = self.command(i)
        child_seed = int(self.rng.integers(2**31))
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        cli_args = [cmd, "--config", str(CONFIGS / f"{config}.json"), "--out", str(self.out),
                    "--seed", str(child_seed), *extra]
        spans_path = WORK / "child-spans.json"
        if tracer is None:
            argv = [sys.executable, "-c", CONSOLE_SCRIPT, *cli_args]
        else:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *cli_args]
        res, scale = speed.scaled(self.calibration, self.spawner.run, argv, WORK / "child.log")
        wall, rss, code = res["stop"] - res["start"], res["rss_mb"], res["code"]
        seconds = scale * wall
        if tracer is not None:
            span = tracer.add("op", res["start"], res["stop"], -1)
            if spans_path.exists():
                child = json.loads(spans_path.read_text())
                tracer.adopt(child, span)
                tracer.add("interpreter.startup", res["start"], child["started"], span)
                tracer.add("interpreter.exit", child["finished"], res["stop"], span)
        what = f"rydcav {cmd} {config} --seed {child_seed}"
        if code != 0:
            log = (WORK / "child.log").read_text(errors="replace").strip().splitlines()
            report_failure("exit code", what, f"exit code {code}: {log[-1] if log else ''}")
            return Op(seconds, wall, rss, False)
        ok = self.manifest_matches(what) and self.check_outputs(what, child_seed)
        return Op(seconds, wall, rss, ok)

    def manifest_matches(self, what):
        """Every output the manifest lists exists and has the listed SHA-256."""
        try:
            outputs = json.loads((self.out / "manifest.json").read_text())["outputs"]
            bad = [rel for rel, digest in outputs.items() if sha256(self.out / rel) != digest]
        except (OSError, ValueError, KeyError) as exc:
            report_failure("manifest", what, f"manifest unreadable: {exc!r}")
            return False
        if not outputs or bad:
            report_failure("manifest", what,
                           f"manifest lists {len(outputs)} outputs, mismatched: {bad}")
            return False
        return True


class CliSmall(CliWorkload):
    PAIRS = (
        ("simulate", "flythrough"), ("simulate", "sensitivity"), ("simulate", "power"),
        ("simulate", "rabi"), ("fit", "flythrough"), ("fit", "power"),
        ("trueness", "trueness"),
    )
    group = len(PAIRS)
    configs = sorted({config for _, config in PAIRS})

    def command(self, i):
        cmd, config = self.PAIRS[i % len(self.PAIRS)]
        return cmd, config, []


class Campaign(CliWorkload):
    configs = ["campaign"]
    checks = CliWorkload.checks + ("shots.csv shape", "shots.csv bits")
    HEADER = ["shot_id", "mean_n", "n_prepared", "dphi_deg", "n_estimated", "s1_vns",
              "s2_vns", "s_ratio", "p_fraction", "n_mcp_estimated"]
    RECORD_KEYS = ["shot_id", "mean_n", "n_prep", "dphi_deg", "n_est", "s1", "s2", "s_r",
                   "p_p", "n_mcp_est"]
    ROWS = 100_000

    def __init__(self, seed, spawner):
        super().__init__(seed, spawner)
        self.scenario = rydcav.configio.load_scenario(CONFIGS / "campaign.json")

    def command(self, i):
        return "campaign", "campaign", ["--threads", "1"]

    def check_outputs(self, what, child_seed):
        """shots.csv parsed back equals, bit for bit, the records of an
        in-process campaign with the same seed."""
        path = self.out / "shots.csv"
        with path.open() as fh:
            header = fh.readline().rstrip("\r\n").split(",")
        got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        rec = rydcav.experiments.run_single_shot_campaign(
            replace(self.scenario, master_seed=child_seed), threads=1)["records"]
        want = np.column_stack([np.asarray(rec[k], dtype=float) for k in self.RECORD_KEYS])
        if header != self.HEADER or got.shape != (self.ROWS, len(self.HEADER)):
            report_failure("shots.csv shape", what, f"shots.csv header {header}, shape {got.shape}")
            return False
        if not same_bits(got, want):
            report_failure("shots.csv bits", what, "shots.csv differs from the in-process records")
            return False
        return True


def same_bits(a, b):
    """Equal float64 arrays, bit for bit; any NaN matches any NaN."""
    if a.shape != b.shape:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return bool(np.array_equal(nan_a, nan_b)
                and np.array_equal(a[~nan_a].view(np.uint64), b[~nan_b].view(np.uint64)))


# ---------------------------------------------------------------------------
# in-process workloads: inputs are built untimed, then the timed call


class InProcessWorkload:
    group = 1
    calibration = "loop"
    checks = ("exception",)

    def __init__(self, seed, _spawner):
        self.rng = np.random.default_rng(seed)

    def op(self, i, tracer, speed):
        inp = self.prepare()
        (out, wall), scale = speed.scaled(self.calibration, self.timed_run, inp, tracer)
        return Op(scale * wall, wall, None, out is not None and self.check(inp, out))

    def timed_run(self, inp, tracer):
        """The timed call; returns its output (None if it raised) and its
        wall time."""
        if tracer is not None:
            tracer.enabled = True
            tracer.begin("op")
        t0 = time.perf_counter()
        try:
            out = self.run(inp)
        except Exception:
            out = None
            report_failure("exception", type(self).__name__, traceback.format_exc().strip())
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
            tracer.enabled = False
        return out, wall


class TraceFit(InProcessWorkload):
    configs = ["flythrough", "power"]
    checks = InProcessWorkload.checks + (
        "atom-number fit converged", "entry-time fit converged", "power fit converged",
        "|z| <= 5")

    def __init__(self, seed, spawner):
        super().__init__(seed, spawner)
        load = rydcav.configio.load_scenario
        self.fly = load(CONFIGS / "flythrough.json")
        self.power = load(CONFIGS / "power.json")
        self.model_kw = {"transit_decay": self.fly.flag("transit_decay", True),
                         "extended_cloud": self.fly.flag("extended_cloud", False)}
        self.abs_z = []

    def prepare(self):
        sc, rng, kappa = self.fly, self.rng, self.fly.kappa
        n_true = float(rng.uniform(50.0, 600.0))
        entry = float(rng.uniform(-0.5e-6, 0.5e-6))
        truth = replace(sc.ensemble, n_atoms=n_true, entry_time=entry)
        traces = []
        for delta_m in (0.0, kappa / 2.0):
            trace, dphi = rydcav.transmission.simulate_flythrough(
                truth, sc.cavity, sc.transitions, delta_m, kappa, **self.model_kw)
            r = float(rydcav.detection.snr(sc.probe.n_c, sc.cavity.kappa_out, trace.dt,
                                           sc.noise.n_noise))
            sigma = 1.0 / np.sqrt(r * sc.shots)  # per-sample quadrature noise, rad
            n = trace.times.size
            phase_noise = sigma * rng.standard_normal(n)
            traces.append({
                "delta_m": delta_m,
                "times": trace.times,
                "amplitude": trace.amplitude + sigma * rng.standard_normal(n),
                "phase": np.unwrap(trace.phase) + phase_noise,
                "sigma_amp": sigma,
                "sigma_phase": sigma,
            })
            if delta_m == 0.0:
                entry_data = (trace.times, dphi + np.degrees(phase_noise), np.degrees(sigma))
        sweep = rydcav.experiments.run_power_sweep(
            replace(self.power, master_seed=int(rng.integers(2**31))))
        datasets = [{"n_c": ds["n_c"], "dphi_deg": ds["dphi_deg"], "sigma_deg": ds["sigma_deg"]}
                    for ds in sweep["datasets"]]
        return {"n_true": n_true, "entry": entry, "traces": traces,
                "entry_data": entry_data, "datasets": datasets}

    def run(self, inp):
        sc, est = self.fly, rydcav.estimation
        n_fit = est.fit_atom_number(
            inp["traces"], replace(sc.ensemble, entry_time=inp["entry"]), sc.cavity,
            sc.transitions, sc.kappa, **self.model_kw)
        times, dphi, sigma_deg = inp["entry_data"]
        t_fit = est.fit_entry_time(
            times, dphi, replace(sc.ensemble, n_atoms=inp["n_true"]), sc.cavity,
            sc.transitions, 0.0, sc.kappa, sigma_deg=sigma_deg, **self.model_kw)
        p_fit = est.fit_power_dependence(inp["datasets"], self.power.kappa)
        return n_fit, t_fit, p_fit

    def check(self, inp, out):
        """Every fit converged, and |N_fit - N_true| <= 5 sigma_N."""
        n_fit, t_fit, p_fit = out
        z = abs(n_fit["n_atoms"] - inp["n_true"]) / n_fit.uncertainties["n_atoms"]
        self.abs_z.append(z)
        unconverged = [name for name, fit in
                       (("atom-number", n_fit), ("entry-time", t_fit), ("power", p_fit))
                       if not fit.converged]
        what = f"trace_fit N_true={inp['n_true']:.6g}"
        for name in unconverged:
            report_failure(f"{name} fit converged", what, "converged=False")
        if not z <= 5.0:
            report_failure("|z| <= 5", what, f"|N_fit - N_true| = {z:.3g} sigma_N")
        return not unconverged and z <= 5.0


class LongTrace(InProcessWorkload):
    configs = ["flythrough"]
    checks = InProcessWorkload.checks + ("dt order",)
    HALVINGS = 8
    CHECKED_HALVINGS = 5

    def __init__(self, seed, spawner):
        super().__init__(seed, spawner)
        self.fly = rydcav.configio.load_scenario(CONFIGS / "flythrough.json")

    def prepare(self):
        kappa = self.fly.kappa
        return {"delta_m": float(self.rng.uniform(-0.5, 0.5)) * kappa,
                "transit_decay": bool(self.rng.random() < 0.5)}

    def run(self, inp):
        sc = self.fly
        dt0 = (2.0 / sc.kappa) / 27.0
        return [
            rydcav.transmission.simulate_flythrough(
                sc.ensemble, sc.cavity, sc.transitions, inp["delta_m"], sc.kappa,
                dt=dt0 / 2**k, transit_decay=inp["transit_decay"])[1]
            for k in range(self.HALVINGS + 1)
        ]

    def check(self, inp, out):
        """Observed order in dt is 2 +- 0.1 on the first halvings.

        Each grid holds every sample of the coarser one, so successive
        solutions are compared on the coarse grid."""
        diffs = [np.max(np.abs(coarse - fine[::2][:coarse.size]))
                 for coarse, fine in zip(out, out[1:])]
        orders = [np.log2(a / b) for a, b in zip(diffs, diffs[1:])][:self.CHECKED_HALVINGS]
        if all(abs(p - 2.0) <= 0.1 for p in orders):
            return True
        report_failure("dt order", f"long_trace {inp}",
                       f"observed orders {np.round(orders, 4).tolist()}")
        return False


# BENCHMARK.json lists every workload but trace_fit: on it, at the commit
# that added the benchmark, fit_entry_time and (rarely) fit_atom_number
# return converged=False, so its runs report failed ops.  It stays runnable
# by name, with its checks, for when the fitter is fixed.
WORKLOADS = {"cli_small": CliSmall, "campaign": Campaign, "long_trace": LongTrace,
             "trace_fit": TraceFit}


# ---------------------------------------------------------------------------
# measuring


Run = namedtuple("Run", "ops setups scales wall_setups")


def measure(workload, seconds, speed, tracer=None, setup=None):
    """Closed loop for ``seconds``, finishing the current cycle of ops.

    With ``setup`` (a callable that times one set-up), SETUP_REPEATS set-ups
    are spread evenly over the same ``seconds``, between ops.
    Each op and set-up is bracketed by calibrations (``speed``, a
    :class:`Speed`) and its wall time scaled.  Set-up runs a fresh
    interpreter, so it takes the ``start`` calibration.  Returns the ops and
    set-up times so scaled, every scale factor used, and the set-up wall
    times.
    """
    ops, setups, scales, wall_setups = [], [], [], []

    def set_up():
        wall, scale = speed.scaled("start", setup)
        wall_setups.append(wall)
        scales.append(scale)
        setups.append(scale * wall)

    start = time.perf_counter()
    due = [start + k * seconds / SETUP_REPEATS for k in range(SETUP_REPEATS)] if setup else []
    while time.perf_counter() < start + seconds or len(ops) % workload.group:
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            set_up()
        ops.append(workload.op(len(ops), tracer, speed))
        scales.append(ops[-1].seconds / ops[-1].wall)
    for _ in due:
        set_up()
    return Run(ops, setups, scales, wall_setups)


def setup_timer(spawner, configs):
    """A callable returning the wall time of one fresh interpreter doing
    the workload's set-up."""
    paths = [str(CONFIGS / f"{c}.json") for c in configs]

    def once():
        res = spawner.run([sys.executable, "-c", SETUP_PROBE, *paths], WORK / "setup.log")
        if res["code"] != 0:
            sys.exit(f"perfbench: set-up failed (exit {res['code']}): "
                     f"{(WORK / 'setup.log').read_text(errors='replace')}")
        return res["stop"] - res["start"]
    return once


def tail_quantile(n):
    """0.9, or the highest quantile with at least ten samples beyond it
    (never below the median)."""
    return 0.9 if n >= 100 else max(0.5, 1.0 - 10.0 / n)


def end_to_end(workload, ops, setup_s):
    times = np.array([op.seconds for op in ops])
    if isinstance(workload, CliWorkload):
        rss = max(op.rss_mb for op in ops)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q = tail_quantile(len(ops))
    values = {
        "setup_s": setup_s,
        "op_s.p50": float(np.median(times)),
        "op_s.p90": float(np.quantile(times, q)),
        "ops_per_s": len(ops) / float(times.sum()),
        "peak_rss_mb": rss,
    }
    notes = {
        "op_s.p50": f"range {times.min():.4g} .. {times.max():.4g} s",
        "op_s.p90": f"quantile {q:.3f} of {len(ops)} ops",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters spread over the run",
    }
    extra = []
    if isinstance(workload, Campaign):
        extra.append(("shots_per_s", Campaign.ROWS * len(ops) / float(times.sum()), "1/s", ""))
    if isinstance(workload, TraceFit) and workload.abs_z:
        extra.append(("fit_n_abs_z.p50", float(np.median(workload.abs_z)), "1",
                      f"median over {len(workload.abs_z)} atom-number fits"))
    return values, notes, extra


def scaled_call(speed, fn, *args):
    """Wall time of ``fn(*args)``, scaled like an in-process op."""
    def timed():
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0
    wall, scale = speed.scaled("loop", timed)
    return scale * wall


def kernel_probe(speed):
    """Public response_filter on long synthetic inputs (min of repeats)."""
    rng = np.random.default_rng(0)
    out = {}
    for n, repeats in KERNEL_SIZES:
        chi = 2e4 * np.sin(np.linspace(0, 8 * np.pi, n)) * rng.standard_normal()
        z = (-7.4e5 - 1j * chi).astype(np.complex128)
        out[f"kernels.response_filter.{n:.0e}_s".replace("+0", "")] = min(
            scaled_call(speed, rydcav.kernels.response_filter, z, 5e-8, complex(-1.0 / z[0]))
            for _ in range(repeats))
    return out


def campaign_threads_probe(speed):
    """In-process campaign compute on the packaged config, 1 and 2 threads.
    Runs on every CPU the benchmark was started with."""
    scenario = rydcav.configio.load_scenario(CONFIGS / "campaign.json")
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, START_CPUS)
    out = {}
    try:
        for threads in (1, 2):
            out[f"experiments.run_single_shot_campaign.threads{threads}_s"] = statistics.median(
                scaled_call(speed, rydcav.experiments.run_single_shot_campaign, scenario,
                            threads)
                for _ in range(CAMPAIGN_THREADS_REPEATS))
    finally:
        os.sched_setaffinity(0, pinned)
    return out


# interpreter.* and cli.import are recorded around CLI children, the rest at
# the call sites that tracing.install wraps
LAYERS = ["interpreter.startup", "cli.import", "interpreter.exit"] + list(
    dict.fromkeys(layer for _, _, layer, _ in CALL_SITES)) + ["fitting.least_squares_fit"]


def per_layer(tracer, untraced, traced):
    """Per-layer metrics of the traced ops.  Span times are scaled by the
    median scale factor of the traced ops."""
    spans = tracer.spans
    n = len(traced.ops)
    self_s, total_s = layer_times(spans)
    c = tracer.counters
    fits = c.get("fitting.least_squares_fit_calls", 0)
    samples = c.get("kernels.response_filter_samples", 0)
    scale = statistics.median(traced.scales)
    values = {f"{layer}_s": scale * self_s.get(layer, 0.0) / n for layer in LAYERS}
    for key in ("transmission.fly_through_shift_trace_calls",
                "transmission.transmission_response_calls", "kernels.response_filter_calls",
                "kernels.response_filter_samples", "configio.write_csv_cells",
                "configio.write_csv_bytes", "experiments.shots",
                "fitting.least_squares_fit_calls"):
        values[key] = c.get(key, 0) / n
    values["kernels.ns_per_sample"] = values["kernels.response_filter_s"] * n * 1e9 / samples \
        if samples else 0.0
    values["fitting.iterations"] = c.get("fitting.iterations", 0) / fits if fits else 0.0
    values["fitting.model_evals"] = c.get("fitting.model_evals", 0) / fits if fits else 0.0
    values["fitting.converged_ratio"] = c.get("fitting.converged", 0) / fits if fits else 0.0
    op_total = total_s["op"]
    values["trace.coverage"] = 1.0 - self_s["op"] / op_total
    values["trace.overhead_s"] = (statistics.median(op.seconds for op in traced.ops)
                                  - statistics.median(op.seconds for op in untraced.ops))
    values["trace.ops"] = float(n)
    values["trace.spans_per_op"] = len(spans) / n
    shares = sorted(((self_s[name] / op_total, name) for name in self_s if name != "op"),
                    reverse=True)
    return values, shares


# ---------------------------------------------------------------------------
# facts and output


def version(module):
    """Installed version of a module, or None when it does not import."""
    if importlib.util.find_spec(module) is None:
        return None
    return importlib.import_module(module).__version__


def facts():
    """Machine and code facts, reported with every run but not gated."""
    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": version("numba"),
        "kernels.NUMBA_ENABLED": getattr(rydcav.kernels, "NUMBA_ENABLED", None),
        "src_lines": loc,
        "runtime_dependencies": len(deps),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    global rydcav
    args = parse_args(argv)
    if not (SRC / "rydcav" / "__init__.py").is_file():
        print(f"perfbench: no rydcav sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    # one CPU for this process and, through the spawner, every child: a
    # timed piece of work and its calibrations then share a core
    os.sched_setaffinity(0, {min(START_CPUS)})
    spawner = Spawner()
    try:
        sys.path.insert(0, str(SRC))
        import rydcav.configio
        import rydcav.estimation
        import rydcav.experiments
        import rydcav.kernels
        import rydcav.transmission

        report(args, spec, spawner)
    finally:
        spawner.close()
    return 0


def report(args, spec, spawner):
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, spawner)
    speed = Speed(spawner)
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("facts " + json.dumps(facts()))

    if args.trace == 0:
        run = measure(workload, args.seconds, speed, setup=setup_timer(spawner, cls.configs))
        ops = run.ops
        values, notes, extra = end_to_end(workload, ops, statistics.median(run.setups))
        metrics = spec["end_to_end"]
        print(f"unscaled: op median {statistics.median(op.wall for op in ops):.6g} s, set-up median "
              f"{statistics.median(run.wall_setups):.6g} s; scale factor median "
              f"{statistics.median(run.scales):.4f}, range {min(run.scales):.4f} .. "
              f"{max(run.scales):.4f}")
    else:
        untraced = measure(workload, args.seconds / 2, speed)
        tracer = Tracer()
        if isinstance(workload, InProcessWorkload):
            install(tracer)
        traced = measure(workload, args.seconds / 2, speed, tracer)
        ops = untraced.ops + traced.ops
        values, shares = per_layer(tracer, untraced, traced)
        values.update(kernel_probe(speed))
        values.update(campaign_threads_probe(speed))
        tracer.dump(WORK / f"spans-{args.workload}.json")
        notes, extra = {}, []
        print("self time by layer, share of traced op time "
              f"(dominant: {shares[0][1]}):")
        for share, name in shares:
            print(f"  {name:44s} {share:7.2%}")
        metrics = spec["per_layer"]
    shutil.rmtree(WORK / "op", ignore_errors=True)

    failed = sum(not op.ok for op in ops)
    print("failed ops by check " + json.dumps({c: FAILURES[c] for c in workload.checks}))
    extra.append(("error_rate", failed / len(ops), "ratio", f"{failed} of {len(ops)} ops failed"))
    for name, value, unit, note in (
            [(m["name"], values[m["name"]], m["unit"], notes.get(m["name"], ""))
             for m in metrics] + extra):
        print(f"  {name:56s} {value:14.6g} {unit:6s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))


if __name__ == "__main__":
    sys.exit(main())
