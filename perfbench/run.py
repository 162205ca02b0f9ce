"""qmock benchmark: cold-process workloads timed end to end and per layer.

    python3 perfbench/run.py --workload table|expand|verify --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Every operation runs in a fresh worker
interpreter (``worker.py``), one at a time, so each sample pays qmock's
cold caches as a command-line user does.  The workload's inputs come
from ``--seed`` alone.

``--trace 0`` starts operations until ``--seconds`` is used up and
reports the end-to-end metrics: ``setup_s`` (spawn until ``import
qmock`` returns), ``solve_s`` (first CLI call until the last rendered
result), each the median over the run's samples, and ``peak_rss_mb``,
the largest peak resident set size of the run's workers.
``--trace 1`` runs one operation untraced and the same operation traced
twice, checks that both traced runs give identical exact counts and
digests, and reports the per-layer metrics.

Every CLI call is one operation.  It fails if it raises, if an oracle
rejects its output, or if the SHA-256 of its stdout differs from the one
stored in ``digests.json``.  The last stdout line is the result object;
the line before it is the run record.
"""

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import EXACT_COUNTS, metric_names  # noqa: E402

# ``qmock coeffs`` names: every key of NAMED_FORMS and NAMED_MOCKS.
SERIES_NAMES = (
    "eta", "eta3", "theta2", "theta3", "theta4", "Theta2", "Theta3", "Theta4",
    "E2", "Estar", "Z0hat", "A", "B", "A38", "A78",
    "H", "Qplus", "QplusTau8", "Mq", "mu:half", "mu:tauhalf", "mu:onetauhalf",
)
# The expand workload's orders in q-units; QplusTau8 runs at order // 8.
EXPAND_ORDERS = (248, 256, 264)
# ``routes`` is left out: its work is exactly the table workload.
VERIFY_SUITES = ("paper-table", "kernel", "jacobi", "genus", "moonshine")

SETUP_PROBES = 5
HARD_LIMIT_S = 170  # the whole run ends well within three minutes


def table_calls():
    return [["table", "--max", "8"]]


def expand_calls(order, names=SERIES_NAMES):
    return [
        ["coeffs", "--series", name,
         "--order", str(order // 8 if name == "QplusTau8" else order), "--format", "json"]
        for name in names
    ]


def verify_calls(suites=VERIFY_SUITES):
    return [["verify", "--suite", suite] for suite in suites]


class Workload:
    """The seed-determined sequence of CLI calls, one list per operation."""

    def __init__(self, name, seed):
        self.name = name
        self.rng = random.Random(seed)
        self.orders = list(EXPAND_ORDERS)
        self.rng.shuffle(self.orders)
        self.count = 0

    def next_calls(self):
        i = self.count
        self.count += 1
        if self.name == "table":
            return table_calls()
        if self.name == "expand":
            names = list(SERIES_NAMES)
            self.rng.shuffle(names)
            return expand_calls(self.orders[i % len(self.orders)], names)
        suites = list(VERIFY_SUITES)
        self.rng.shuffle(suites)
        return verify_calls(suites)


class Runner:
    def __init__(self, workload, digests):
        self.workload = workload
        self.digests = digests
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def spawn(self, spec):
        """Run one worker to completion; its report, with ``setup_s``."""
        timeout = max(1.0, self.started + HARD_LIMIT_S - time.monotonic())
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException as exc:  # timeout, or the run itself is stopped
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                return None, "worker timed out"
            raise
        if proc.returncode != 0:
            return None, f"worker exit {proc.returncode}: {err.strip()[-500:]}"
        report = json.loads(out.splitlines()[-1])
        report["setup_s"] = report["imported"] - spawned
        return report, None

    def operation(self, calls, trace=False):
        """Run one operation and score every call; None if the worker died."""
        self.attempted += len(calls)
        report, error = self.spawn({"workload": self.workload, "calls": calls, "trace": trace})
        if report is None:
            self.failed += len(calls)
            self.problems.append(error)
            return None
        for call in report["calls"]:
            want = self.digests.get(call["key"])
            if want != call["digest"]:
                call["problems"].append(f"digest {call['digest'][:12]}, stored {want}")
            if call["problems"]:
                self.failed += 1
                self.problems.append(f"{call['key']}: {'; '.join(call['problems'])}")
        return report

    def setup_samples(self):
        self.spawn({"workload": "setup"})  # unmeasured: fills the bytecode cache
        samples = []
        for _ in range(SETUP_PROBES):
            report, error = self.spawn({"workload": "setup"})
            if report is None:
                raise RuntimeError(f"qmock does not import: {error}")
            samples.append(report["setup_s"])
        return samples


def measure(runner, workload, seconds):
    """Operations until ``seconds`` run out; end-to-end metrics and samples."""
    setup = runner.setup_samples()
    solve, rss = [], []
    begin = time.monotonic()
    while True:
        elapsed = time.monotonic() - begin
        # start another operation only if it should end by half an
        # operation past the deadline, so runs stay close to ``seconds``
        if solve and elapsed + 0.5 * elapsed / len(solve) > seconds:
            break
        report = runner.operation(workload.next_calls())
        if report is None:
            break
        setup.append(report["setup_s"])
        solve.append(report["solve_s"])
        rss.append(report["rss_mb"])
    if not solve:
        raise RuntimeError("no operation completed")
    samples = {"setup_s": setup, "solve_s": solve, "peak_rss_mb": rss}
    metrics = {"setup_s": statistics.median(setup), "solve_s": statistics.median(solve),
               "peak_rss_mb": max(rss)}
    return metrics, samples


def trace(runner, workload):
    """One untraced and two traced runs of the same operation."""
    calls = workload.next_calls()
    plain = runner.operation(calls)
    traced = [runner.operation(calls, trace=True) for _ in range(2)]
    if plain is None or None in traced:
        raise RuntimeError("an operation of the traced run did not complete")
    first, second = (t["layers"] for t in traced)
    # self-test: exact counts and digests must repeat between traced runs
    runner.attempted += 1
    exact = [n for n in first if n.endswith((".calls", ".raised")) or n in EXACT_COUNTS]
    differ = [n for n in exact if first[n] != second[n]]
    if differ or [c["digest"] for c in traced[0]["calls"]] != [c["digest"] for c in traced[1]["calls"]]:
        runner.failed += 1
        runner.problems.append(f"traced runs differ in {differ or 'digests'}")
    metrics = {}
    for name, value in first.items():
        if name in exact:
            metrics[name] = value
        else:
            metrics[name] = (value + second[name]) / 2
    metrics["trace.untraced_solve_s"] = plain["solve_s"]
    metrics["trace.overhead_s"] = metrics["trace.solve_s"] - plain["solve_s"]
    samples = {"solve_s": [plain["solve_s"]],
               "traced_solve_s": [t["layers"]["trace.solve_s"] for t in traced]}
    return metrics, samples


def host_probe():
    """Seconds for a fixed pure-int loop; recorded, never used to normalise."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    return time.perf_counter() - t0


def commit():
    """The checked-out commit, or None outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def declared_metrics(trace_on):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    return [(m["name"], m["unit"]) for m in config["per_layer" if trace_on else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("table", "expand", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker (see Runner.spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "qmock", "__init__.py")):
        print("error: src/qmock not found; run from a qmock checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)[args.workload]
    declared = declared_metrics(args.trace)
    units = metric_names() if args.trace else {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
    if sorted(declared) != sorted(units.items()):
        print("error: BENCHMARK.json metrics differ from those measured", file=sys.stderr)
        return 2

    runner = Runner(args.workload, digests)
    workload = Workload(args.workload, args.seed)
    probes = [host_probe()]
    try:
        if args.trace:
            metrics, samples = trace(runner, workload)
        else:
            metrics, samples = measure(runner, workload, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    probes.append(host_probe())

    for problem in runner.problems:
        print(f"failed: {problem}", file=sys.stderr)
    record = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sample_counts": {name: len(values) for name, values in samples.items()},
        "samples": samples,
        "host_probe_s": probes,
        "wall_s": time.monotonic() - runner.started,
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
