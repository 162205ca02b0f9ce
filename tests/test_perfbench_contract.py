"""The names the benchmark tracer wraps must exist in qmock, the dense
view it counts through must keep its shape, and the calls the benchmark
taps must still be made.

``perfbench/tracer.py`` rebinds each listed layer function by name, so
a rename in qmock would only show up as a crash of a traced benchmark
run.  The tracer source is read by path and executed in a private
namespace, so nothing is imported from, or written to, ``perfbench/``.
"""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from qmock import uplane
from qmock.mock import h_series
from qmock.qseries import Series

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


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


def test_tracer_counts_through_the_dense_view_match_the_sparse_store():
    # the tracer reads .re, .im and the truthiness of each entry of the
    # dense view Series.coeffs
    tracer = load_tracer()
    big = Series.monomial(-3, Fraction(-3, 10**40 + 1), prec=24)
    for s in (Series.zero(48), big, h_series(8)):
        support = s.support()
        coeffs = [s.coefficient(e) for e in support]
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
            default=0,
        )
        assert tracer["_nnz"](s) == len(support)
        assert tracer["_nnz_bits"](s) == (len(support), bits)
    assert tracer["_nnz_bits"](big) == (1, 133)  # 10^40 needs 133 bits


def test_product_min_exp_is_its_valuation():
    # the tracer counts qseries.mul.slots_out as result.prec - result.min_exp
    assert isinstance(Series.__dict__.get("min_exp"), property)
    pole = Series.from_pairs([(-24, 2), (0, 1)], prec=48)
    cancel = Series.from_pairs([(0, 1), (24, -1)], prec=48)
    for a, b in ((pole, pole), (pole, cancel), (h_series(4), pole), (pole, Series.zero(24))):
        product = a * b
        want = product.prec if product.is_zero() else product.val()
        assert product.min_exp == want


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


#: a traced benchmark worker in miniature: it imports what perfbench/worker.py
#: imports, installs the tracer, runs two CLI calls and prints the snapshot
TRACED_RUN = """
import contextlib, io, json, pathlib, sys
from qmock import cli, uplane
namespace = {"__name__": "perfbench_tracer"}
exec(compile(pathlib.Path(sys.argv[1]).read_text(), sys.argv[1], "exec"), namespace)
tracer = namespace["Tracer"]()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["verify", "--suite", "genus"], ["table", "--max", "2"]):
        assert cli.main(argv) == 0, argv
print(json.dumps(tracer.snapshot()))
"""


def test_an_installed_tracer_sees_the_cli_work():
    # in a fresh interpreter, so that install sees only what the worker has
    # loaded and its rebinding stays out of this process
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACER_PATH)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    snapshot = json.loads(proc.stdout)
    assert snapshot["mock.h_series.calls"] > 0
    assert snapshot["uplane.phi_route_b.calls"] > 0
    assert snapshot["verify.elliptic-genus.s"] > 0
