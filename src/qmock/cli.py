"""Command-line front end.

Results go to stdout in the requested format (json | csv | plain; the
moonshine report has no csv), diagnostics to stderr.  One function,
``render``, writes every result.  Exit codes: 0 success / all checks
pass, 1 verification mismatch, 2 usage or precision error.  Identical
invocations produce byte-identical output.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .qseries import LATTICE_DEN, InsufficientPrecision, QSeriesError
from .forms import NAMED_FORMS
from .mock import NAMED_MOCKS, a_coefficients
from .moonshine import decompose_bounded, decompose_distinct
from .uplane import (
    ROUTE_H12,
    ROUTE_QPLUS,
    InvariantRecord,
    donaldson_phi,
    column_extract,
    generating_function,
    h_k_series,
    z0_reduce,
)
from .verify import SUITES, run_suite

DEFAULT_ORDER = 64
SERIES = {**NAMED_FORMS, **NAMED_MOCKS}
ROUTES = {"qplus": (ROUTE_QPLUS,), "h": (ROUTE_H12,), "both": (ROUTE_QPLUS, ROUTE_H12)}


def default_order():
    env = os.environ.get("QMOCK_ORDER")
    if env is not None:
        try:
            return nonneg(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise QSeriesError(f"QMOCK_ORDER must be a nonnegative integer, got {env!r}")
    return DEFAULT_ORDER


def render(out, fmt, *, to_json, to_plain, to_csv=None):
    """Write one result in ``fmt`` and return exit code 0.  Only that
    format's thunk is called: ``to_json`` gives an object (compact JSON),
    ``to_csv`` a header and rows of cells (comma-joined), ``to_plain``
    lines.  Every line ends in one newline."""
    if fmt == "json":
        lines = [json.dumps(to_json(), separators=(",", ":"))]
    elif fmt == "csv":
        header, rows = to_csv()
        lines = [header, *(",".join(map(str, row)) for row in rows)]
    else:
        lines = to_plain()
    out.write("".join(f"{line}\n" for line in lines))
    return 0


def records_csv(records):
    """The Donaldson-record CSV: its header and one row per record."""
    rows = ((r.m, r.n, r.value.numerator, r.value.denominator, r.route) for r in records)
    return "m,n,phi_num,phi_den,route", rows


def cmd_coeffs(args, out):
    order = args.order if args.order is not None else default_order()
    if args.series not in SERIES:
        print(
            f"unknown series {args.series!r}; known: {', '.join(sorted(SERIES))}",
            file=sys.stderr,
        )
        return 2
    s = SERIES[args.series](order)
    return render(out, args.format, to_json=s.to_json_obj, to_plain=lambda: [str(s)],
                  to_csv=lambda: ("exp24,exp,re,im", (
                      (e, Fraction(e, LATTICE_DEN), s.coefficient(e), 0)
                      for e in s.support())))


def cmd_invariant(args, out):
    records = [InvariantRecord(args.m, args.n, donaldson_phi(args.m, args.n, route), route)
               for route in ROUTES[args.via]]
    return render(out, args.format,
                  to_json=lambda: {"m": args.m, "n": args.n,
                                   "values": {r.route: str(r.value) for r in records}},
                  to_csv=lambda: records_csv(records),
                  to_plain=lambda: [f"{r.route}: {r.value}" for r in records])


def cmd_table(args, out):
    records, z_string = generating_function(args.max)
    return render(out, args.format,
                  to_json=lambda: {"records": [
                      {"m": r.m, "n": r.n, "phi": str(r.value), "route": r.route}
                      for r in records], "z": z_string},
                  to_csv=lambda: records_csv(records),
                  to_plain=lambda: [
                      *(f"Phi_({r.m},{2 * r.n}) = {r.value}" for r in records), z_string])


def cmd_column(args, out):
    k_max = args.k_max if args.k_max is not None else (args.m + args.n) // 2 + 1
    col = column_extract(args.m, args.n, k_max)
    return render(out, args.format,
                  to_json=lambda: {"m": args.m, "n": args.n,
                                   "column": [str(c) for c in col]},
                  to_csv=lambda: ("k,coeff_num,coeff_den", (
                      (k, c.numerator, c.denominator) for k, c in enumerate(col))),
                  to_plain=lambda: [f"H_{k}: {c}" for k, c in enumerate(col)])


def cmd_verify(args, out):
    results = run_suite(args.suite)
    failed = 0
    for r in results:
        out.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
        failed += 0 if r.passed else 1
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def cmd_moonshine(args, out):
    if args.n < 1:
        print("moonshine targets are A_n with n >= 1", file=sys.stderr)
        return 2
    target = a_coefficients(args.n + 1)[args.n]
    distinct = args.distinct or args.cap is None
    found = decompose_distinct(target) if distinct else None
    dims = list(found.dims()) if found is not None else None
    count, witnesses = (None, []) if args.cap is None else decompose_bounded(
        target, args.cap, args.max_witnesses)
    rows = [list(w.multiplicities) for w in witnesses]
    lines = [f"A_{args.n} = {target}"]
    if distinct:
        lines.append("distinct: " + (" + ".join(map(str, dims)) if dims else "none"))
    if args.cap is not None:
        lines += [f"count (cap {args.cap}): {count}", *(f"witness: {row}" for row in rows)]
    return render(out, args.format, to_plain=lambda: lines, to_json=lambda: {
        "bounded_count": None if count is None else str(count),
        "distinct_witness": dims, "n": args.n, "target": target, "witnesses": rows})


def cmd_reduce_z0(args, out):
    coeffs = z0_reduce(h_k_series(args.k, args.order), 2 * args.k + 4).coefficients
    return render(out, args.format,
                  to_json=lambda: {"k": args.k, "coefficients": [str(c) for c in coeffs]},
                  to_csv=lambda: ("degree,coeff_num,coeff_den", (
                      (d, c.numerator, c.denominator) for d, c in enumerate(coeffs))),
                  to_plain=lambda: [f"H_{args.k} = " + " + ".join(
                      f"({c})*Z0hat^{d}" if d else f"({c})"
                      for d, c in enumerate(coeffs) if c or d == 0)])


def nonneg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


FORMAT = {"choices": ("json", "csv", "plain"), "default": "plain"}

# Every subcommand once: name -> (help, handler, {flag: add_argument keywords}).
# build_parser builds the argparse tree from it, and parse_plain reads a
# well-formed call straight from it.
COMMANDS = {
    "coeffs": ("print the q-expansion of a named series", cmd_coeffs, {
        "--series": {"required": True},
        "--order": {"type": nonneg, "default": None,
                    "help": "q-units of precision (default 64, or QMOCK_ORDER)"},
        "--format": FORMAT,
    }),
    "invariant": ("one Donaldson invariant Phi_{m,2n}", cmd_invariant, {
        "--m": {"type": nonneg, "required": True},
        "--n": {"type": nonneg, "required": True},
        "--via": {"choices": tuple(ROUTES), "default": "both"},
        "--format": FORMAT,
    }),
    "table": ("invariant table for m+n <= max, both routes", cmd_table, {
        "--max": {"type": nonneg, "default": 4},
        "--format": {**FORMAT, "default": "csv"},
    }),
    "column": ("functional coefficients on the graded basis", cmd_column, {
        "--m": {"type": nonneg, "required": True},
        "--n": {"type": nonneg, "required": True},
        "--k-max": {"type": nonneg, "default": None, "dest": "k_max"},
        "--format": FORMAT,
    }),
    "verify": ("run a named verification suite", cmd_verify, {
        "--suite": {"choices": tuple(sorted(SUITES)), "default": "all"},
    }),
    "moonshine": ("M24 decomposition report for A_n", cmd_moonshine, {
        "--n": {"type": int, "required": True},
        "--distinct": {"action": "store_true",
                       "help": "search for a subset witness (default when no --cap)"},
        "--cap": {"type": nonneg, "default": None,
                  "help": "count multiplicity vectors with entries <= cap"},
        "--max-witnesses": {"type": nonneg, "default": 4, "dest": "max_witnesses"},
        "--format": {"choices": ("json", "plain"), "default": "json"},
    }),
    "reduce-z0": ("reduce H_k to a polynomial in Z0hat", cmd_reduce_z0, {
        "--k": {"type": nonneg, "required": True},
        "--order": {"type": nonneg, "default": 32, "help": "working precision in q-units"},
        "--format": FORMAT,
    }),
}


def build_parser():
    """The argparse tree of COMMANDS: the only reader of help, usage errors
    and abbreviated or --flag=value forms."""
    parser = argparse.ArgumentParser(
        prog="qmock",
        description="Exact q-series engine: mock modular forms and the "
        "SO(3) Donaldson invariants of CP^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def parse_plain(argv):
    """The Namespace argparse would return for a well-formed call, read
    straight from COMMANDS, or None.  Well-formed is a command followed
    only by its exact flags, each value-taking flag by a value that does
    not start with "-", converts under its type and lies in its choices,
    with every required flag present; a repeated flag keeps its last
    value.  Every other call is left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if value not in spec.get("choices", (value,)):
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given for flag, spec in options.items()):
        return None
    args = argparse.Namespace(command=argv[0], func=func)
    for flag, spec in options.items():
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        setattr(args, spec.get("dest", flag[2:].replace("-", "_")), given.get(flag, default))
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_plain(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except InsufficientPrecision as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return 2
    except (QSeriesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
