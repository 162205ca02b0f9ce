"""The names the benchmark tracer wraps must exist in qmock.

``perfbench/tracer.py`` rebinds each listed layer function by name, so
a rename in qmock would only show up as a crash of a traced benchmark
run.  The tracer source is read by path and executed in a private
namespace, so nothing is imported from, or written to, ``perfbench/``.
"""

import importlib
from pathlib import Path

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
