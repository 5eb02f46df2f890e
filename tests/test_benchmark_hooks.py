"""The benchmark's tracer reaches rydcav through named module attributes
(``perfbench/tracing.py`` ``CALL_SITES``), reads flags through
``Scenario.flag``, and ``perfbench/run.py`` calls the library in process;
a refactor that drops one of them, or changes a signature those calls
rely on, breaks ``--trace 1`` or a workload, so it fails here first."""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from rydcav import detection, estimation, experiments, kernels, transmission
from rydcav.fitting import least_squares_fit
from rydcav.configio import load_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RUN = PERFBENCH / "run.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library only
    return module


def test_call_sites_resolve(tracing):
    for owner, attr, _layer, _after in tracing.CALL_SITES:
        assert callable(getattr(tracing._owner(owner), attr, None)), f"{owner}.{attr}"
    assert callable(tracing._owner("rydcav.estimation").least_squares_fit)


def test_flag_accessor_returns_typed_values(config_dir):
    fly = load_scenario(config_dir / "flythrough.json")
    assert fly.flag("transit_decay", True) is False
    assert fly.flag("extended_cloud", False) is False


# Each in-process call of perfbench/run.py, by workload: the function and the
# arguments it passes (placeholders; only their number and names matter).
MODEL_KW = {"transit_decay": True, "extended_cloud": False}
RUN_CALLS = [
    ("long_trace", transmission.simulate_flythrough,
     ("ens", "cav", "trans", "delta_m", "kappa"), {"dt": 1e-8, "transit_decay": True}),
    ("trace_fit", transmission.simulate_flythrough,
     ("ens", "cav", "trans", "delta_m", "kappa"), MODEL_KW),
    ("trace_fit", detection.snr, ("n_c", "kappa_out", "dt", "n_noise"), {}),
    ("trace_fit", experiments.run_power_sweep, ("scenario",), {}),
    ("trace_fit", estimation.fit_atom_number,
     ("traces", "ens", "cav", "trans", "kappa"), MODEL_KW),
    ("trace_fit", estimation.fit_entry_time,
     ("times", "dphi", "ens", "cav", "trans", 0.0, "kappa"), {"sigma_deg": 1.0, **MODEL_KW}),
    ("trace_fit", estimation.fit_power_dependence, ("datasets", "kappa"), {}),
    ("campaign", experiments.run_single_shot_campaign, ("scenario",), {"threads": 1}),
    ("threads probe", experiments.run_single_shot_campaign, ("scenario", 2), {}),
    ("kernel probe", kernels.response_filter, ("z", 5e-8, "b0"), {}),
]


@pytest.mark.parametrize("workload, fn, args, kwargs", RUN_CALLS,
                         ids=[f"{w}-{fn.__name__}" for w, fn, *_ in RUN_CALLS])
def test_run_calls_bind(workload, fn, args, kwargs):
    signature = inspect.signature(fn)
    signature.bind(*args, **kwargs)
    # a keyword that only a **model_kw catches must be a model switch
    assert set(kwargs) - set(signature.parameters) <= set(MODEL_KW)


def campaign_record_keys():
    """``Campaign.RECORD_KEYS`` read from perfbench/run.py without importing
    it (it needs the benchmark's own path set-up)."""
    for node in ast.walk(ast.parse(RUN.read_text())):
        if isinstance(node, ast.ClassDef) and node.name == "Campaign":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "RECORD_KEYS":
                    return ast.literal_eval(stmt.value)
    raise AssertionError("perfbench/run.py has no Campaign.RECORD_KEYS")


def test_campaign_records_hold_benchmark_keys(config_dir):
    sc = dataclasses.replace(load_scenario(config_dir / "campaign.json"), shots=20)
    records = experiments.run_single_shot_campaign(sc, threads=1)["records"]
    keys = campaign_record_keys()
    assert len(keys) == 10
    assert set(keys) <= set(records)


def test_fit_result_surface_read_by_benchmark():
    # tracing.py counts res.iterations and res.converged; run.py's TraceFit
    # checks fit.converged and reads fit["n_atoms"] and fit.uncertainties
    sources = TRACING.read_text() + RUN.read_text()
    for attr in (".iterations", ".converged", '.uncertainties["n_atoms"]', '["n_atoms"]'):
        assert attr in sources, attr
    x = np.linspace(0.0, 1.0, 20)
    y = 2.0 * x + 0.01 * np.sin(7.0 * x)
    fit = least_squares_fit(lambda p: p["n_atoms"] * x, y, {"n_atoms": 1.0})
    assert type(fit.iterations) is int and fit.iterations >= 1
    assert type(fit.converged) is bool and fit.converged
    assert type(fit.uncertainties["n_atoms"]) is float and fit.uncertainties["n_atoms"] > 0
    assert fit["n_atoms"] == fit.params["n_atoms"] == pytest.approx(2.0, abs=0.02)
