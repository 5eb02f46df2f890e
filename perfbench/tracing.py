"""Layer spans for the traced benchmark run.

rydcav's layers reach each other through module attributes (``cli`` calls
``write_csv`` by the name it imported, ``transmission`` calls
``response_filter``, ...).  :func:`install` replaces those attributes with
wrappers that record a span per call, so the package itself is not edited.
Spans are kept in memory as ``[name, start, end, parent]`` rows (``parent``
is an index into the same list, -1 for a root) and written out once, at the
end.  Times are ``time.perf_counter`` readings, which on Linux share one
clock across processes, so a CLI child's spans nest under the parent's op.

Only the standard library is imported here: the traced CLI child imports
this module before it starts timing ``import rydcav.cli``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time


class Tracer:
    """Span and counter recorder.  The wrappers that :func:`install` adds
    record only while ``enabled`` is true."""

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.spans = []
        self.counters = {}
        self._stack = []

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def begin(self, name):
        """Open a span under the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def add(self, name, start, stop, parent):
        """Record a finished span; returns its index."""
        self.spans.append([name, start, stop, parent])
        return len(self.spans) - 1

    def adopt(self, record, parent):
        """Attach spans and counters written by :meth:`dump` in another
        process; its root spans become children of span ``parent``."""
        base = len(self.spans)
        for name, start, stop, p in record["spans"]:
            self.spans.append([name, start, stop, parent if p < 0 else base + p])
        for key, n in record["counters"].items():
            self.count(key, n)

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, **extra}, fh)


def _wrap(tracer, layer, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.count(layer + "_calls")
        tracer.begin(layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(tracer, args, out)
        return out

    return traced


def _wrap_fit(tracer, fn):
    """least_squares_fit: also count iterations, model evaluations and
    converged results (the model function arrives as the first argument)."""

    def counted_model(model_fn):
        def model(*args, **kwargs):
            tracer.count("fitting.model_evals")
            return model_fn(*args, **kwargs)

        return model

    inner = _wrap(tracer, "fitting.least_squares_fit", fn, after=_after_fit)

    @functools.wraps(fn)
    def traced(model_fn, *args, **kwargs):
        if tracer.enabled:
            model_fn = counted_model(model_fn)
        return inner(model_fn, *args, **kwargs)

    return traced


def _after_fit(tracer, _args, res):
    tracer.count("fitting.iterations", res.iterations)
    tracer.count("fitting.converged", int(bool(res.converged)))


def _after_write_csv(tracer, args, path):
    columns = args[1]  # arrays or lists, shorter ones broadcast
    rows = max(v.size if hasattr(v, "size") else len(v) for v in columns.values())
    tracer.count("configio.write_csv_cells", rows * len(columns))
    tracer.count("configio.write_csv_bytes", os.path.getsize(path))


def _after_campaign(tracer, _args, res):
    tracer.count("experiments.shots", len(res["records"]["shot_id"]))


def _after_kernel(tracer, args, _out):
    tracer.count("kernels.response_filter_samples", len(args[0]))


# (owner, attribute, layer, after-hook): the attribute is the name through
# which the calling layer reaches the called one.  The same function reached
# under several names is wrapped at each, with one layer name.
CALL_SITES = (
    ("rydcav.cli", "main", "cli.main", None),
    ("rydcav.cli", "load_scenario", "configio.load_scenario", None),
    ("rydcav.cli", "write_csv", "configio.write_csv", _after_write_csv),
    ("rydcav.cli", "write_json", "configio.write_json", None),
    ("rydcav.configio:RunManifest", "add", "configio.manifest", None),
    ("rydcav.configio:RunManifest", "write", "configio.manifest", None),
    ("rydcav.experiments", "run_flythrough", "experiments.run_flythrough", None),
    ("rydcav.experiments", "run_sensitivity_sweep", "experiments.run_sensitivity_sweep", None),
    ("rydcav.experiments", "run_power_sweep", "experiments.run_power_sweep", None),
    ("rydcav.experiments", "run_rabi_scenario", "experiments.run_rabi_scenario", None),
    ("rydcav.experiments", "trueness_ledger", "experiments.trueness_ledger", None),
    ("rydcav.experiments", "run_single_shot_campaign",
     "experiments.run_single_shot_campaign", _after_campaign),
    ("rydcav.detection", "simulate_phase_shot_batch", "detection.simulate_phase_shot_batch", None),
    ("rydcav.detection", "mcp_signal", "detection.mcp_signal", None),
    ("rydcav.estimation", "fit_atom_number", "estimation.fit_atom_number", None),
    ("rydcav.estimation", "fit_entry_time", "estimation.fit_entry_time", None),
    ("rydcav.estimation", "fit_power_dependence", "estimation.fit_power_dependence", None),
    ("rydcav.estimation", "predict_superposition_phase",
     "estimation.predict_superposition_phase", None),
    ("rydcav.experiments", "simulate_flythrough", "transmission.simulate_flythrough", None),
    ("rydcav.estimation", "simulate_flythrough", "transmission.simulate_flythrough", None),
    ("rydcav.transmission", "simulate_flythrough", "transmission.simulate_flythrough", None),
    ("rydcav.transmission", "fly_through_shift_trace", "transmission.fly_through_shift_trace", None),
    ("rydcav.transmission", "transmission_response", "transmission.transmission_response", None),
    ("rydcav.transmission", "response_filter", "kernels.response_filter", _after_kernel),
)

def _owner(spec):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer):
    """Wrap every call site in :data:`CALL_SITES`, and the estimators' calls
    into the fitter."""
    for spec, attr, layer, after in CALL_SITES:
        owner = _owner(spec)
        setattr(owner, attr, _wrap(tracer, layer, getattr(owner, attr), after))
    estimation = importlib.import_module("rydcav.estimation")
    estimation.least_squares_fit = _wrap_fit(tracer, estimation.least_squares_fit)


def layer_times(spans):
    """Self and inclusive seconds per layer name.

    A span's self time is its duration minus the durations of its direct
    children.  Returns ``(self_s, total_s)`` dicts keyed by name.
    """
    child = [0.0] * len(spans)
    for name, start, stop, parent in spans:
        if parent >= 0:
            child[parent] += stop - start
    self_s, total_s = {}, {}
    for i, (name, start, stop, _parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (stop - start) - child[i]
        total_s[name] = total_s.get(name, 0.0) + (stop - start)
    return self_s, total_s
