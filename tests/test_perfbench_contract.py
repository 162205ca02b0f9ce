"""The names the benchmark tracer wraps must exist in qmock, and the
calls the benchmark taps must still be made.

``perfbench/tracer.py`` rebinds each listed layer function by name, so
a rename in qmock would only show up as a crash of a traced benchmark
run.  The tracer source is read by path and executed in a private
namespace, so nothing is imported from, or written to, ``perfbench/``.
"""

import importlib
from pathlib import Path

from qmock import uplane
from qmock.qseries import Series

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), namespace)
    return namespace


def test_tracer_layer_functions_resolve():
    tracer = load_tracer()
    for layer, names in tracer["LAYERS"].items():
        if layer == "qseries":
            continue
        module = importlib.import_module(f"qmock.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qmock.{layer}.{name}"


def test_tracer_series_methods_resolve():
    tracer = load_tracer()
    for attr in tracer["SERIES_METHODS"].values():
        assert attr in Series.__dict__, f"Series.{attr}"
    assert importlib.import_module("qmock.verify").SUITES


def test_generating_function_calls_each_route_once_per_pair(monkeypatch):
    # the table oracle taps uplane.phi_route_a/phi_route_b by module
    # attribute and expects one call of each per (m, n)
    calls = {"phi_route_a": [], "phi_route_b": []}
    for name, seen in calls.items():
        fn = getattr(uplane, name)

        def recording(m, n, _fn=fn, _seen=seen):
            _seen.append((m, n))
            return _fn(m, n)

        monkeypatch.setattr(uplane, name, recording)
    uplane.generating_function(4)
    pairs = sorted((m, t - m) for t in range(5) for m in range(t + 1))
    assert len(pairs) == 15
    for seen in calls.values():
        assert sorted(seen) == pairs
