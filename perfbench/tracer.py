"""Spans around qmock's public layer functions, installed from outside.

The tracer rebinds every qmock module attribute (and every entry of a
module-level dict or tuple) that holds one of the listed function
objects, because ``from .forms import eta`` copies the binding into each
importing module.  ``Series`` methods are wrapped on the class, aliases
such as ``__rmul__ = __mul__`` included.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Exact counts (nonzero terms, slots, bit sizes,
repeated and subsumed calls) are computed outside the clock: the time
spent counting is subtracted from every span open at that moment.
"""

import sys
import time

#: layer -> the public functions timed in that layer
LAYERS = {
    "qseries": (
        "mul", "invert", "pow_int", "add", "scale", "q_derive",
        "rescale_exponents", "sieve", "to_json_obj", "from_json_obj",
    ),
    "forms": (
        "eta", "eta_quotient", "theta_char", "theta_nullwert", "theta_big",
        "eisenstein_e2", "e_star", "z0_hat",
    ),
    "mock": (
        "mu_half_period", "h_series", "q_plus", "q_plus_rescaled",
        "mock_theta_m", "elliptic_genus_check",
    ),
    "brackets": ("cohen_bracket", "bracket_hat"),
    "uplane": (
        "u_plane_coefficient", "phi_route_b", "theta_quotient_factor",
        "column_extract", "kernel_check", "h_k_series", "z0_reduce",
    ),
    "moonshine": ("decompose_distinct", "decompose_bounded"),
}

#: metric name of a Series method -> the class attribute that defines it
SERIES_METHODS = {
    "mul": "__mul__",
    "add": "__add__",
    "pow_int": "pow_int",
    "invert": "invert",
    "scale": "scale",
    "q_derive": "q_derive",
    "rescale_exponents": "rescale_exponents",
    "sieve": "sieve",
    "to_json_obj": "to_json_obj",
    "from_json_obj": "from_json_obj",
}

#: check name (as ``qmock verify`` prints it) of every check the
#: ``verify`` workload runs
VERIFY_CHECKS = (
    "mock-coefficients", "qplus-expansion", "donaldson-table",
    "symbolic-columns", "kernel-vanishing", "parity-vanishing",
    "jacobi-eta-cube", "z0-derivative-identity", "z0-derivative-corrected",
    "theta-rescale-relations", "theta-eta-quotient-consistency",
    "hk-z0-reduction", "elliptic-genus", "moonshine-decompositions",
)

#: layers whose calls are keyed by (function, arguments) for the
#: repeat and subsumed counts; the last positional argument is the order
MEMO_LAYERS = ("forms", "mock")

#: exact counts a traced run records besides ``*.calls``
EXACT_COUNTS = (
    "qseries.mul.terms", "qseries.mul.slots_out", "qseries.mul.nnz_out",
    "qseries.coeff_bits_max",
    "forms.repeat_calls", "forms.subsumed_calls",
    "mock.repeat_calls", "mock.subsumed_calls",
)


def metric_names():
    """Every per-layer metric a traced operation yields, with its unit."""
    out = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = "count"
            out[f"{layer}.{fn}.self_s"] = "s"
    for layer in (*LAYERS, "verify"):
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.raised"] = "count"
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = "s"
    for name in EXACT_COUNTS:
        out[name] = "bits" if name.endswith("bits_max") else "count"
    out["qseries.mul.fill"] = "ratio"
    for name in ("solve_s", "untraced_solve_s", "overhead_s", "counting_s", "unattributed_s"):
        out[f"trace.{name}"] = "s"
    return out


def _nnz(series):
    return sum(1 for c in series.coeffs if c)


def _nnz_bits(series):
    """Nonzero coefficients, and the largest numerator or denominator in bits."""
    nnz = best = 0
    for c in series.coeffs:
        if c:
            nnz += 1
            for x in (c.re, c.im):
                if x:
                    best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return nnz, best


class Tracer:
    """Call counts, self times and exact counts of one traced operation."""

    def __init__(self):
        self.stack = [0.0]  # per open span: summed durations of its children
        self.excluded = 0.0  # seconds spent counting, kept out of every span
        self.stats = {}  # (layer, fn) -> [calls, self_s, raised, total_s]
        self.check_names = {}  # verify check function -> printed check name
        self.counts = dict.fromkeys(EXACT_COUNTS, 0)
        self.memo_seen = {}  # (layer, fn, arguments before the order) -> orders seen

    # ------------------------------------------------------------------
    # spans

    def wrap(self, layer, fn_name, fn, before=None, after=None):
        stat = self.stats.setdefault((layer, fn_name), [0, 0.0, 0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if before is not None:
                c0 = clock()
                before(args)
                self.excluded += clock() - c0
            stat[0] += 1
            stack.append(0.0)
            excluded0 = self.excluded
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                duration = clock() - t0 - (self.excluded - excluded0)
                stat[1] += duration - stack.pop()
                stat[3] += duration
                stack[-1] += duration
            if after is not None:
                c0 = clock()
                after(args, result)
                self.excluded += clock() - c0
            return result

        return span

    # ------------------------------------------------------------------
    # exact counts

    def _series_after(self, fn_name, series_cls):
        counts = self.counts

        def after(args, result):
            # a power's coefficients are those of the products and the
            # inverse it is made of, which are counted themselves
            if fn_name == "pow_int" or not isinstance(result, series_cls):
                return
            nnz, bits = _nnz_bits(result)
            if fn_name == "mul" and isinstance(args[1], series_cls):
                counts["qseries.mul.terms"] += _nnz(args[0]) * _nnz(args[1])
                counts["qseries.mul.slots_out"] += result.prec - result.min_exp
                counts["qseries.mul.nnz_out"] += nnz
            if bits > counts["qseries.coeff_bits_max"]:
                counts["qseries.coeff_bits_max"] = bits

        return after

    def _memo_before(self, layer, fn_name):
        counts = self.counts

        def before(args):
            key = (layer, fn_name, args[:-1])
            order = args[-1]
            seen = self.memo_seen.setdefault(key, set())
            if order in seen:
                counts[f"{layer}.repeat_calls"] += 1
            elif seen and order < max(seen):
                counts[f"{layer}.subsumed_calls"] += 1
            seen.add(order)

        return before

    # ------------------------------------------------------------------
    # installation

    def install(self):
        """Wrap the listed layer functions, every check of
        ``qmock.verify.SUITES`` and the ``Series`` methods, and rebind
        them in every loaded qmock module."""
        modules = [m for name, m in sys.modules.items()
                   if name == "qmock" or name.startswith("qmock.")]
        replace = {}
        for layer, fns in LAYERS.items():
            if layer == "qseries":
                continue
            for fn_name in fns:
                orig = getattr(sys.modules[f"qmock.{layer}"], fn_name)
                before = self._memo_before(layer, fn_name) if layer in MEMO_LAYERS else None
                replace[id(orig)] = self.wrap(layer, fn_name, orig, before=before)
        suites = sys.modules["qmock.verify"].SUITES
        for check in {c for checks in suites.values() for c in checks}:
            replace[id(check)] = self.wrap(
                "verify", check.__name__, check, after=self._check_after(check.__name__))
        for module in modules:
            _rebind(module, replace)

        series_cls = sys.modules["qmock.qseries"].Series
        for fn_name, attr in SERIES_METHODS.items():
            raw = series_cls.__dict__[attr]
            after = self._series_after(fn_name, series_cls)
            if isinstance(raw, classmethod):
                setattr(series_cls, attr, classmethod(
                    self.wrap("qseries", fn_name, raw.__func__, after=after)))
                continue
            span = self.wrap("qseries", fn_name, raw, after=after)
            for alias, value in list(series_cls.__dict__.items()):
                if value is raw:
                    setattr(series_cls, alias, span)

    def _check_after(self, fn_name):
        def after(args, result):
            self.check_names[fn_name] = result.name

        return after

    # ------------------------------------------------------------------
    # report

    def snapshot(self):
        """Per-layer metrics: calls, self times, raises and exact counts."""
        out = dict.fromkeys(metric_names(), 0)
        for (layer, fn_name), (calls, self_s, raised, total_s) in self.stats.items():
            if layer == "verify":
                if fn_name in self.check_names:
                    out[f"verify.{self.check_names[fn_name]}.s"] = total_s
            else:
                out[f"{layer}.{fn_name}.calls"] = calls
                out[f"{layer}.{fn_name}.self_s"] = self_s
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.raised"] += raised
        out.update(self.counts)
        slots = out["qseries.mul.slots_out"]
        out["qseries.mul.fill"] = out["qseries.mul.nnz_out"] / slots if slots else 0.0
        out["spans_s"] = self.stack[0]
        return out


def _rebind(module, replace):
    """Point every attribute of ``module`` holding a replaced function
    (directly, or inside a module-level dict or tuple) at its wrapper."""
    for attr, value in list(vars(module).items()):
        new = _replaced(value, replace)
        if new is not value:
            setattr(module, attr, new)
        elif isinstance(value, dict):
            for key, item in list(value.items()):
                new = _replaced(item, replace)
                if new is not item:
                    value[key] = new


def _replaced(value, replace):
    if callable(value) and id(value) in replace:
        return replace[id(value)]
    if isinstance(value, tuple) and any(id(v) in replace for v in value if callable(v)):
        return tuple(_replaced(v, replace) for v in value)
    return value
