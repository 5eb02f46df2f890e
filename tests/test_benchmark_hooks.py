"""The benchmark's tracer reaches rydcav through named module attributes
(``perfbench/tracing.py`` ``CALL_SITES``) and reads flags through
``Scenario.flag``; a refactor that drops one of them breaks ``--trace 1``
or the ``trace_fit`` workload, so it fails here first."""

import importlib.util
from pathlib import Path

import pytest

from rydcav.configio import load_scenario

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
