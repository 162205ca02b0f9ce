"""One benchmark operation in a fresh interpreter, so that every sample
pays qmock's cold caches the way a command-line user does.

    python3 perfbench/worker.py '<spec as JSON>'

The spec holds the workload name, the ``qmock`` argument lists to run in
order, and whether to trace.  The worker prints one JSON object: the
monotonic time at which ``import qmock`` returned, the wall seconds from
the first CLI call to the last rendered result, the peak resident set
size, and per call its output digest and every oracle problem found.
Oracles run after the clock stops.  With ``"workload": "setup"`` the
worker only imports qmock and reports the import time.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qmock  # noqa: E402  (the import is what set-up time measures)

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from qmock import cli, uplane  # noqa: E402

LATTICE = 24

# The nine tabulated Donaldson invariants Phi_{m,2n} of CP^2.
PHI_TABLE = {
    (0, 0): Fraction(-1),
    (0, 2): Fraction(-3, 16),
    (1, 1): Fraction(-5, 16),
    (2, 0): Fraction(-19, 16),
    (0, 4): Fraction(-232, 256),
    (1, 3): Fraction(-152, 256),
    (2, 2): Fraction(-136, 256),
    (3, 1): Fraction(-184, 256),
    (4, 0): Fraction(-680, 256),
}

# H = 2 q^(-1/8) (-1 + sum A_n q^n): the first eight A_n.
A_TABLE = (45, 231, 770, 2277, 5796, 13915, 30843, 65550)

# Check names each suite prints, in order.
SUITE_CHECKS = {
    "paper-table": ("mock-coefficients", "qplus-expansion", "donaldson-table",
                    "symbolic-columns"),
    "kernel": ("kernel-vanishing", "parity-vanishing"),
    "jacobi": ("jacobi-eta-cube", "z0-derivative-identity", "z0-derivative-corrected",
               "theta-rescale-relations", "theta-eta-quotient-consistency",
               "hk-z0-reduction"),
    "genus": ("elliptic-genus",),
    "moonshine": ("moonshine-decompositions",),
}
# The one check that fails by design, and the constant it must report.
KNOWN_RED = ("z0-derivative-identity", "holds with c = -2, not c = 1")


# ----------------------------------------------------------------------
# oracles: each returns a list of problems, empty when the output is right


def check_table(code, out, routes):
    if code != 0:
        return [f"exit code {code}"]
    lines = out.splitlines()
    if not lines or lines[0] != "m,n,phi_num,phi_den,route":
        return ["missing CSV header"]
    rows = {}
    for line in lines[1:]:
        m, n, num, den, route = line.split(",")
        if route != "FinalFormula":
            return [f"row {line!r} has route {route}"]
        rows[int(m), int(n)] = Fraction(int(num), int(den))
    problems = []
    even = {(m, t - m) for t in range(0, 9, 2) for m in range(t + 1)}
    if set(rows) != even:
        problems.append("rows are not the even pairs m+n <= 8")
    problems += [f"Phi{mn} = {rows.get(mn)}, want {want}"
                 for mn, want in PHI_TABLE.items() if rows.get(mn) != want]
    for t in range(9):
        for m in range(t + 1):
            mn = (m, t - m)
            a, b = routes["A"].get(mn), routes["B"].get(mn)
            if a is None or a != b:
                problems.append(f"routes disagree at {mn}: A {a}, B {b}")
            elif t % 2 and a:
                problems.append(f"odd pair {mn} gives {a}")
            elif t % 2 == 0 and rows.get(mn) != a:
                problems.append(f"row {mn} differs from route A")
    return problems


def decode_series(out):
    """The JSON wire format as {lattice exponent: (re, im)}, nonzero only."""
    obj = json.loads(out)
    coeffs = {}
    for k, (rn, rd, sn, sd) in enumerate(obj["coeffs"]):
        c = (Fraction(int(rn), int(rd)), Fraction(int(sn), int(sd)))
        if any(c):
            coeffs[obj["min_exp"] + k] = c
    return obj, coeffs


def direct_sum(name, prec):
    """Expected coefficients of Theta_j (direct sums) and of eta^3 (Jacobi)."""
    out = {}
    n = 0
    if name == "Theta2":
        while 24 * (2 * n + 1) ** 2 < prec:
            out[24 * (2 * n + 1) ** 2] = 1
            n += 1
    elif name in ("Theta3", "Theta4"):
        while 96 * n * n < prec:
            out[96 * n * n] = 1 if n == 0 else (2 if name == "Theta3" or n % 2 == 0 else -2)
            n += 1
    elif name == "eta3":
        while 12 * n * (n + 1) + 3 < prec:
            out[12 * n * (n + 1) + 3] = (-1) ** n * (2 * n + 1)
            n += 1
    return {e: (Fraction(c), Fraction(0)) for e, c in out.items()}


def check_coeffs(code, out, name, order):
    if code != 0:
        return [f"exit code {code}"]
    obj, coeffs = decode_series(out)
    again = json.dumps(qmock.Series.from_json_obj(obj).to_json_obj(), separators=(",", ":"))
    problems = []
    if again + "\n" != out:
        problems.append("JSON round trip is not bit-exact")
    if obj["prec"] != LATTICE * order:
        problems.append(f"certified below {obj['prec']}, asked for {LATTICE * order}")
    if name == "H":
        want = {-3: -2, **{-3 + 24 * n: 2 * a for n, a in enumerate(A_TABLE, 1)}}
        problems += [f"H at {e}: {coeffs.get(e)}" for e, c in want.items()
                     if coeffs.get(e) != (Fraction(c), Fraction(0))]
        problems += [f"H has a term off -1/8 + Z at {e}" for e in coeffs if (e + 3) % 24]
    elif name in ("Theta2", "Theta3", "Theta4", "eta3"):
        if coeffs != direct_sum(name, obj["prec"]):
            problems.append(f"{name} differs from its direct sum")
    return problems


def check_suite(code, out, suite):
    lines = out.splitlines()
    names = SUITE_CHECKS[suite]
    if len(lines) != len(names) + 1:
        return [f"{len(lines)} lines for {len(names)} checks"]
    problems = []
    red = 0
    for line, name in zip(lines, names):
        status, _, detail = line.partition(" ")
        if not detail.startswith(name + ": "):
            problems.append(f"expected check {name}, got {detail!r}")
        elif name == KNOWN_RED[0]:
            red += 1
            if status != "FAIL" or KNOWN_RED[1] not in detail:
                problems.append(f"{name} must fail with c = -2: {line!r}")
        elif status != "PASS":
            problems.append(line)
    passed = len(names) - red
    if lines[-1] != f"{passed}/{len(names)} checks passed":
        problems.append(f"summary {lines[-1]!r}")
    if code != (1 if red else 0):
        problems.append(f"exit code {code}")
    return problems


def oracle(workload, argv, code, out, routes):
    try:
        if workload == "table":
            return check_table(code, out, routes)
        if workload == "expand":
            return check_coeffs(code, out, argv[2], int(argv[4]))
        return check_suite(code, out, argv[2])
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        return [f"output does not parse: {type(exc).__name__}: {exc}"]


# ----------------------------------------------------------------------


def tap_routes():
    """Record both routes' value per (m, n) as ``generating_function``
    computes them; two wrapped calls per pair, against seconds of work."""
    routes = {"A": {}, "B": {}}
    for label, attr in (("A", "phi_route_a"), ("B", "phi_route_b")):
        fn = getattr(uplane, attr)

        def tapped(m, n, _fn=fn, _seen=routes[label]):
            _seen[m, n] = value = _fn(m, n)
            return value

        setattr(uplane, attr, tapped)
    return routes


def run(spec):
    workload = spec["workload"]
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    routes = tap_routes() if workload == "table" else None

    results = []
    t0 = time.perf_counter()
    for argv in spec["calls"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the operation failed; the run goes on
                code = f"raised {type(exc).__name__}: {exc}"
        results.append((argv, code, buf.getvalue()))
    solve_s = time.perf_counter() - t0
    report = {
        "imported": IMPORTED,
        "solve_s": solve_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.snapshot()
        traced_s = solve_s - tracer.excluded
        layers.update({
            "trace.solve_s": traced_s,
            "trace.counting_s": tracer.excluded,
            "trace.unattributed_s": traced_s - layers.pop("spans_s"),
        })
        report["layers"] = layers

    report["calls"] = [
        {
            "key": " ".join(argv),
            "digest": hashlib.sha256(out.encode()).hexdigest(),
            "problems": oracle(workload, argv, code, out, routes),
        }
        for argv, code, out in results
    ]
    return report


def main():
    spec = json.loads(sys.argv[1])
    if spec["workload"] == "setup":
        report = {"imported": IMPORTED}
    else:
        report = run(spec)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
