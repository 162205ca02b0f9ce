"""Command-line front end.

Results go to stdout in the requested format (json | csv | plain),
diagnostics to stderr.  Exit codes: 0 success / all checks pass,
1 verification mismatch, 2 usage or precision error.  Identical
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
from .moonshine import report_json_obj
from .uplane import (
    ROUTE_H12,
    ROUTE_QPLUS,
    donaldson_phi,
    column_extract,
    generating_function,
    h_k_series,
    records_to_csv,
    z0_reduce,
)
from .verify import SUITES, run_suite

DEFAULT_ORDER = 64


def default_order():
    env = os.environ.get("QMOCK_ORDER")
    if env is not None:
        try:
            return nonneg(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise QSeriesError(f"QMOCK_ORDER must be a nonnegative integer, got {env!r}")
    return DEFAULT_ORDER


def resolve_series(name, order):
    registry = {**NAMED_FORMS, **NAMED_MOCKS}
    if name not in registry:
        raise KeyError(name)
    return registry[name](order)


def series_csv(s):
    lines = ["exp24,exp,re,im"]
    for e in s.support():
        lines.append(f"{e},{Fraction(e, LATTICE_DEN)},{s.coefficient(e)},0")
    return "\n".join(lines) + "\n"


def cmd_coeffs(args, out):
    order = args.order if args.order is not None else default_order()
    try:
        s = resolve_series(args.series, order)
    except KeyError:
        registry = {**NAMED_FORMS, **NAMED_MOCKS}
        print(
            f"unknown series {args.series!r}; known: {', '.join(sorted(registry))}",
            file=sys.stderr,
        )
        return 2
    if args.format == "json":
        out.write(json.dumps(s.to_json_obj(), separators=(",", ":")) + "\n")
    elif args.format == "csv":
        out.write(series_csv(s))
    else:
        out.write(str(s) + "\n")
    return 0


def cmd_invariant(args, out):
    routes = {
        "qplus": (ROUTE_QPLUS,),
        "h": (ROUTE_H12,),
        "both": (ROUTE_QPLUS, ROUTE_H12),
    }[args.via]
    values = [(route, donaldson_phi(args.m, args.n, route)) for route in routes]
    if args.format == "json":
        obj = {
            "m": args.m,
            "n": args.n,
            "values": {route: str(v) for route, v in values},
        }
        out.write(json.dumps(obj, separators=(",", ":")) + "\n")
    elif args.format == "csv":
        out.write("m,n,phi_num,phi_den,route\n")
        for route, v in values:
            out.write(f"{args.m},{args.n},{v.numerator},{v.denominator},{route}\n")
    else:
        for route, v in values:
            out.write(f"{route}: {v}\n")
    return 0


def cmd_table(args, out):
    records, z_string = generating_function(args.max)
    if args.format == "json":
        obj = {
            "records": [
                {
                    "m": r.m,
                    "n": r.n,
                    "phi": str(r.value),
                    "route": r.route,
                }
                for r in records
            ],
            "z": z_string,
        }
        out.write(json.dumps(obj, separators=(",", ":")) + "\n")
    elif args.format == "csv":
        out.write(records_to_csv(records))
    else:
        for r in records:
            out.write(f"Phi_({r.m},{2 * r.n}) = {r.value}\n")
        out.write(z_string + "\n")
    return 0


def cmd_column(args, out):
    k_max = args.k_max if args.k_max is not None else (args.m + args.n) // 2 + 1
    col = column_extract(args.m, args.n, k_max)
    if args.format == "json":
        obj = {"m": args.m, "n": args.n, "column": [str(c) for c in col]}
        out.write(json.dumps(obj, separators=(",", ":")) + "\n")
    elif args.format == "csv":
        out.write("k,coeff_num,coeff_den\n")
        for k, c in enumerate(col):
            out.write(f"{k},{c.numerator},{c.denominator}\n")
    else:
        for k, c in enumerate(col):
            out.write(f"H_{k}: {c}\n")
    return 0


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
    obj = report_json_obj(
        target,
        distinct=distinct,
        cap=args.cap,
        max_witnesses=args.max_witnesses,
    )
    obj["n"] = args.n
    if args.format == "json":
        out.write(json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n")
    else:
        out.write(f"A_{args.n} = {target}\n")
        if distinct:
            w = obj["distinct_witness"]
            out.write(
                "distinct: " + (" + ".join(map(str, w)) if w else "none") + "\n"
            )
        if args.cap is not None:
            out.write(f"count (cap {args.cap}): {obj['bounded_count']}\n")
            for wit in obj["witnesses"]:
                out.write(f"witness: {wit}\n")
    return 0


def cmd_reduce_z0(args, out):
    hk = h_k_series(args.k, args.order)
    poly = z0_reduce(hk, 2 * args.k + 4)
    if args.format == "json":
        obj = {"k": args.k, "coefficients": [str(c) for c in poly.coefficients]}
        out.write(json.dumps(obj, separators=(",", ":")) + "\n")
    elif args.format == "csv":
        out.write("degree,coeff_num,coeff_den\n")
        for d, c in enumerate(poly.coefficients):
            out.write(f"{d},{c.numerator},{c.denominator}\n")
    else:
        terms = [
            f"({c})*Z0hat^{d}" if d else f"({c})"
            for d, c in enumerate(poly.coefficients)
            if c or d == 0
        ]
        out.write(f"H_{args.k} = " + " + ".join(terms) + "\n")
    return 0


def nonneg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmock",
        description="Exact q-series engine: mock modular forms and the "
        "SO(3) Donaldson invariants of CP^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="plain"):
        p.add_argument("--format", choices=("json", "csv", "plain"), default=default)

    p = sub.add_parser("coeffs", help="print the q-expansion of a named series")
    p.add_argument("--series", required=True)
    p.add_argument("--order", type=nonneg, default=None,
                   help="q-units of precision (default 64, or QMOCK_ORDER)")
    add_format(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("invariant", help="one Donaldson invariant Phi_{m,2n}")
    p.add_argument("--m", type=nonneg, required=True)
    p.add_argument("--n", type=nonneg, required=True)
    p.add_argument("--via", choices=("qplus", "h", "both"), default="both")
    add_format(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("table", help="invariant table for m+n <= max, both routes")
    p.add_argument("--max", type=nonneg, default=4)
    add_format(p, default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("column", help="functional coefficients on the graded basis")
    p.add_argument("--m", type=nonneg, required=True)
    p.add_argument("--n", type=nonneg, required=True)
    p.add_argument("--k-max", type=nonneg, default=None, dest="k_max")
    add_format(p)
    p.set_defaults(func=cmd_column)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=tuple(sorted(SUITES)), default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("moonshine", help="M24 decomposition report for A_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--distinct", action="store_true",
                   help="search for a subset witness (default when no --cap)")
    p.add_argument("--cap", type=nonneg, default=None,
                   help="count multiplicity vectors with entries <= cap")
    p.add_argument("--max-witnesses", type=nonneg, default=4, dest="max_witnesses")
    add_format(p, default="json")
    p.set_defaults(func=cmd_moonshine)

    p = sub.add_parser("reduce-z0", help="reduce H_k to a polynomial in Z0hat")
    p.add_argument("--k", type=nonneg, required=True)
    p.add_argument("--order", type=nonneg, default=32,
                   help="working precision in q-units")
    add_format(p)
    p.set_defaults(func=cmd_reduce_z0)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
