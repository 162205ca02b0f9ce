"""Exact truncated Laurent series over the rationals.

Every q-expansion in this package lives on the exponent lattice (1/24)Z:
an exponent is stored as an integer number of lattice units, i.e. 24ths
of a power of q.  A series knows its coefficients exactly for all
exponents strictly below ``prec`` (also in lattice units).  Coefficients
are rational (Fraction at the API edge).  The powers of i that Jacobi
theta functions pick up at half-period arguments never enter a series:
``forms.theta_char`` returns them as a separate quarter-turn count.

A Series stores only its nonzero terms, as integer numerators over one
common denominator, so the ring operations run on plain integers and
cost time in proportion to the nonzero terms, not to the lattice slots
they span.

Precision rules.  Each operation certifies exactly what its inputs
allow, and every working order in the package is derived from these
rules, with no safety margin:
* a product is certified below min_i(prec_i + sum_{j != i} val_j), so to
  certify it below P, factor i needs prec >= P - sum_{j != i} val_j;
  lower bounds on the other factors' valuations are enough (a zero
  series counts its prec as its valuation);
* an inverse 1/g is certified below g.prec - 2*val(g); it needs g's
  exact valuation, with g.prec >= val(g) + 1 so its leading term is known;
* a sum is certified below the smallest prec of its summands.
So products, powers and inverses all keep prec - val: F = prod f_i^(e_i)
is certified below P once each f_i has prec >= P - val(F) + val(f_i);
``q_order`` rounds that up to q-units.

All values are immutable after construction and all operations are pure
functions, so series may be freely shared between threads.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import wraps
from itertools import compress
from math import gcd, lcm
from threading import Lock

LATTICE_DEN = 24


class QSeriesError(Exception):
    """Base class for all errors raised by this package."""


class LatticeError(QSeriesError):
    """An exponent left the (1/24)Z lattice, or lattices disagree."""


class NotInvertible(QSeriesError):
    """Inversion of a series with no determined nonzero leading term."""


class InsufficientPrecision(QSeriesError):
    """A coefficient was requested at or beyond the certified precision."""

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed  # lattice units of prec that would suffice


def _rational(x):
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational coefficient")


class DenseCoefficient:
    """One entry of the dense view ``Series.coeffs``: a rational ``re``
    with the complex-shaped ``im`` (always 0) that readers of the dense
    view expect.  Read-only, and without arithmetic."""

    __slots__ = ("_re",)

    im = Fraction(0)

    def __init__(self, re):
        self._re = re

    @property
    def re(self):
        return self._re

    def __bool__(self):
        return bool(self._re)

    def __eq__(self, other):
        if not isinstance(other, DenseCoefficient):
            return NotImplemented
        return self._re == other._re

    def __repr__(self):
        return f"DenseCoefficient({self._re!r})"


_ZERO = Fraction(0)
_DENSE_ZERO = DenseCoefficient(_ZERO)


def _ceil_div(a, b):
    return -((-a) // b)


def q_order(prec):
    """The smallest order >= 1 in q-units that reaches ``prec`` lattice units
    (an int or a Fraction): the only place that rounds lattice to q-units."""
    return max(1, _ceil_div(prec, LATTICE_DEN))


def _canonical(exps, nums, den):
    """Drop zero terms and reduce numerators and denominator to lowest terms.

    ``exps`` ascending, ``nums`` integer numerators aligned with it, ``den``
    a positive integer.  Returns the three fields of the canonical sparse
    store.
    """
    exps = list(compress(exps, nums))
    if not exps:
        return [], [], 1
    nums = list(filter(None, nums))
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
    return exps, nums, den


def _rational_terms(pairs):
    """Canonical sparse fields of (exp24, Fraction) pairs; repeats accumulate."""
    den = lcm(*(c.denominator for _, c in pairs))
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c.numerator * (den // c.denominator)
    exps = sorted(acc)
    return _canonical(exps, [acc[e] for e in exps], den)


def _series(min_exp, prec, exps, nums, den):
    """A Series from canonical sparse fields, without any checking."""
    s = object.__new__(Series)
    s.min_exp = min_exp
    s.prec = prec
    s._exps = exps
    s._nums = nums
    s._den = den
    return s


def _pack(min_exp, prec, exps, nums, den):
    return _series(min_exp, prec, *_canonical(exps, nums, den))


class Series:
    """Truncated Laurent series on the lattice (1/24)Z.

    The series is asserted correct for every exponent strictly below
    ``prec`` lattice units.  Exponents below ``min_exp`` are genuinely
    zero: all constructors and operations in this package produce the
    complete expansion from the true valuation upward.  ``min_exp`` may
    lie below the first nonzero term; it is where the dense view
    ``coeffs`` and the wire format start.

    Only nonzero terms are stored, over one common denominator: ``_exps``
    holds their ascending lattice exponents, ``_nums`` their integer
    numerators, and ``_den`` the positive denominator, in lowest terms
    with all numerators.  The coefficient at ``_exps[i]`` is
    ``_nums[i] / _den``.
    """

    __slots__ = ("min_exp", "prec", "_exps", "_nums", "_den")

    def __init__(self, min_exp, coeffs, prec):
        """Dense constructor: ``coeffs[k]`` is the coefficient of
        q^((min_exp + k)/24), one entry for each exponent below prec."""
        coeffs = tuple(coeffs)
        if min_exp > prec:
            raise ValueError(f"min_exp {min_exp} exceeds prec {prec}")
        if len(coeffs) != prec - min_exp:
            raise ValueError(
                f"coefficient count {len(coeffs)} != prec - min_exp = {prec - min_exp}"
            )
        self.min_exp = min_exp
        self.prec = prec
        self._exps, self._nums, self._den = _rational_terms(
            [(min_exp + k, c) for k, c in enumerate(map(_rational, coeffs)) if c]
        )

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, prec):
        return _series(prec, prec, [], [], 1)

    @classmethod
    def monomial(cls, exp24, coeff=1, *, prec):
        """c * q^(exp24/24), known up to (but excluding) prec."""
        coeff = _rational(coeff)
        if exp24 >= prec or not coeff:
            return cls.zero(prec)
        return _series(exp24, prec, [exp24], [coeff.numerator], coeff.denominator)

    @classmethod
    def one(cls, prec):
        return cls.monomial(0, 1, prec=prec)

    @classmethod
    def from_pairs(cls, pairs, *, prec):
        """Series from (exp24, coefficient) pairs; later pairs accumulate."""
        live = [(e, c) for e, c in ((e, _rational(c)) for e, c in pairs) if e < prec and c]
        if not live:
            return cls.zero(prec)
        return _series(min(e for e, _ in live), prec, *_rational_terms(live))

    # ------------------------------------------------------------------
    # inspection

    @property
    def coeffs(self):
        """Dense view, built on demand: the coefficient of
        q^((min_exp + k)/24) for each k < prec - min_exp, as a
        DenseCoefficient."""
        lo = self.min_exp
        out = [_DENSE_ZERO] * (self.prec - lo)
        for e, x in zip(self._exps, self._nums):
            out[e - lo] = DenseCoefficient(Fraction(x, self._den))
        return tuple(out)

    def support(self):
        """Lattice exponents with nonzero coefficient, ascending."""
        return tuple(self._exps)

    def val(self):
        """Lattice exponent of the first nonzero term, or None if zero."""
        return self._exps[0] if self._exps else None

    def is_zero(self):
        return not self._exps

    def coefficient(self, exp24):
        """Exact coefficient of q^(exp24/24), as a Fraction.

        Below min_exp the series is entire, so 0 is returned; at or
        beyond prec nothing is certified and InsufficientPrecision is
        raised, carrying the lattice precision that would suffice.
        """
        if exp24 >= self.prec:
            raise InsufficientPrecision(
                f"coefficient at lattice exponent {exp24} requested, but series "
                f"is only certified below {self.prec}",
                needed=exp24 + 1,
            )
        i = bisect_left(self._exps, exp24)
        if i < len(self._exps) and self._exps[i] == exp24:
            return Fraction(self._nums[i], self._den)
        return _ZERO

    def coefficient_q(self, exponent):
        """Coefficient at a q-exponent given as int or Fraction."""
        e24 = Fraction(exponent) * LATTICE_DEN
        if e24.denominator != 1:
            raise LatticeError(f"exponent {exponent} is not on the (1/24)Z lattice")
        return self.coefficient(int(e24))

    def constant_term(self):
        return self.coefficient(0)

    def truncate(self, prec):
        """Restrict certification to exponents below ``prec``."""
        if prec >= self.prec:
            return self
        if prec <= self.min_exp:
            return Series.zero(prec)
        n = bisect_left(self._exps, prec)
        return _pack(self.min_exp, prec, self._exps[:n], self._nums[:n], self._den)

    # ------------------------------------------------------------------
    # ring operations

    def __neg__(self):
        return Series.combine([(-1, self)])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.monomial(0, other, prec=self.prec)
        if not isinstance(other, Series):
            return NotImplemented
        return Series.combine([(1, self), (1, other)])

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Series) else -_rational(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c):
        """Multiply every coefficient by the scalar c."""
        c = _rational(c)
        return self if c == 1 else Series.combine([(c.numerator, self)], c.denominator)

    @staticmethod
    def combine(pairs, den=1):
        """(sum_i c_i * s_i) / den over (integer c_i, Series s_i) pairs, in
        one pass over the numerators with one common denominator.

        The one linear-combination kernel: ``+``, ``-`` and ``scale`` are
        thin calls to it.  The result is certified below the smallest
        prec, and starts at the smallest min_exp among the nonzero
        weights (capped at that prec).
        """
        if den < 1:
            raise ValueError("the common denominator must be a positive integer")
        pairs = list(pairs)
        prec = min(s.prec for _, s in pairs)
        live = [(c, s) for c, s in pairs if c]
        lo = min([prec] + [s.min_exp for _, s in live])
        common = lcm(*(s._den for _, s in live))
        acc = {}
        get = acc.get
        for c, s in live:
            f = c * (common // s._den)
            for e, x in zip(s._exps[: bisect_left(s._exps, prec)], s._nums):
                acc[e] = get(e, 0) + x * f
        exps = sorted(acc)
        return _pack(lo, prec, exps, [acc[e] for e in exps], common * den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        a, b = self, other
        av, bv = a.val(), b.val()
        ea = a.prec if av is None else av
        eb = b.prec if bv is None else bv
        prec = min(a.prec + eb, b.prec + ea)
        lo = ea + eb
        if av is None or bv is None or lo >= prec:
            return Series.zero(prec)
        if len(a._exps) > len(b._exps):
            a, b = b, a
        # term products accumulate by lattice exponent as integer
        # numerators over a._den * b._den; b's exponents ascend, so the
        # first product at or beyond prec ends the inner loop
        acc = {}
        get = acc.get
        b_terms = list(zip(b._exps, b._nums))
        for e, x in zip(a._exps, a._nums):
            lim = prec - e
            for f, y in b_terms:
                if f >= lim:
                    break
                k = e + f
                acc[k] = get(k, 0) + x * y
        exps = sorted(acc)
        return _pack(lo, prec, exps, [acc[k] for k in exps], a._den * b._den)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse, exact to precision prec - 2*val.

        The inverse of q^v * u is q^(-v) / u; the unit part is inverted
        by the standard convolution recurrence, restricted to the
        arithmetic progression actually supported by u (the inverse of a
        series in q^g is again a series in q^g).

        The recurrence runs on integers.  Write u = A / D with A = sum_t
        A_t q^(t*g) over the integers.  Then 1/A = sum_t C_t q^(t*g) /
        A_0^(t+1) with C_0 = 1 and C_t = -sum_{s>=1} A_s A_0^(s-1) C_(t-s).
        """
        exps = self._exps
        if not exps:
            raise NotInvertible("series has no determined nonzero coefficient")
        v = exps[0]
        length = self.prec - v  # relative certification of the unit part
        out_prec = self.prec - 2 * v
        nums = self._nums
        if len(exps) == 1:
            return Series.monomial(-v, Fraction(self._den, nums[0]), prec=out_prec)
        rel = [e - v for e in exps[1:]]
        g = gcd(*rel)
        count = (length - 1) // g + 1  # progression slots below the precision
        lead = nums[0]
        tail = [(e // g, x * lead ** (e // g - 1)) for e, x in zip(rel, nums[1:])]
        c = [0] * count
        c[0] = 1
        for t in range(1, count):
            acc = 0
            for s, x in tail:
                if s > t:
                    break
                acc += x * c[t - s]
            c[t] = -acc
        # term t is D * C_t / A_0^(t+1): bring every term over |A_0^count|
        den = lead**count
        lift = self._den if den > 0 else -self._den
        for t in range(count - 1, -1, -1):
            c[t] *= lift
            lift *= lead
        return _pack(-v, out_prec, range(-v, -v + count * g, g), c, abs(den))

    def pow_int(self, k):
        """Integer power by binary exponentiation; negative k inverts."""
        if k < 0:
            return self.invert().pow_int(-k)
        if k == 0:
            v = self.val()
            if v is None:
                raise NotInvertible("0^0 of an all-zero series is undetermined")
            # x^0 = 1 exactly; certify at the relative precision of x
            return Series.one(self.prec - v)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    __pow__ = pow_int

    def q_derive(self):
        """Apply q d/dq: multiply each coefficient by its exponent."""
        exps = self._exps
        return _pack(
            self.min_exp,
            self.prec,
            exps,
            [x * e for e, x in zip(exps, self._nums)],
            self._den * LATTICE_DEN,
        )

    def rescale_exponents(self, num, den):
        """Substitute q -> q^(num/den); exponents scale by num/den.

        Every nonzero exponent must land back on the lattice, otherwise
        LatticeError is raised.  Precision rescales the same way.
        """
        if num < 1 or den < 1:
            raise ValueError("rescale factors must be positive integers")
        new_prec = _ceil_div(self.prec * num, den)
        exps = []
        for e in self._exps:
            j = e * num
            if j % den:
                raise LatticeError(
                    f"exponent {Fraction(e, LATTICE_DEN)} maps off the lattice under "
                    f"q -> q^({num}/{den})"
                )
            exps.append(j // den)
        if not exps:
            return Series.zero(new_prec)
        return _series(exps[0], new_prec, exps, self._nums, self._den)

    def sieve(self, r, m):
        """Keep only terms whose integer q-exponent is r mod m.

        Requires all nonzero exponents to be integers (multiples of 24).
        """
        kept = []
        for i, e in enumerate(self._exps):
            if e % LATTICE_DEN:
                raise LatticeError(
                    f"sieve requires integer q-exponents; found {Fraction(e, LATTICE_DEN)}"
                )
            if (e // LATTICE_DEN) % m == r % m:
                kept.append(i)
        if not kept:
            return Series.zero(self.prec)
        return _pack(
            self._exps[kept[0]],
            self.prec,
            [self._exps[i] for i in kept],
            [self._nums[i] for i in kept],
            self._den,
        )

    # ------------------------------------------------------------------
    # comparison and display

    def _terms(self):
        return (self._exps, self._nums, self._den)

    def agrees_with(self, other):
        """Coefficientwise equality up to the smaller precision."""
        prec = min(self.prec, other.prec)
        return self.truncate(prec)._terms() == other.truncate(prec)._terms()

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.prec == other.prec and self._terms() == other._terms()

    __hash__ = None

    def __repr__(self):
        return f"Series(min_exp={self.min_exp}, prec={self.prec}, terms={len(self._exps)})"

    def __str__(self):
        parts = []
        for e, x in zip(self._exps, self._nums):
            cs = str(Fraction(x, self._den))
            exp = Fraction(e, LATTICE_DEN)
            if exp == 0:
                mono = ""
            elif exp == 1:
                mono = "q"
            elif exp.denominator == 1:
                mono = f"q^{exp}"
            else:
                mono = f"q^({exp})"
            if mono:
                term = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            else:
                term = cs
            parts.append(term)
        tail = f"O(q^({Fraction(self.prec, LATTICE_DEN)}))"
        if not parts:
            return tail
        joined = parts[0]
        for p in parts[1:]:
            joined += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return f"{joined} + {tail}"

    # ------------------------------------------------------------------
    # JSON wire format

    def to_json_obj(self):
        """The exact interchange form: integers as decimal strings, one
        entry for every exponent from min_exp up to prec.  Each entry is
        [re_num, re_den, im_num, im_den]; the imaginary part is always 0/1."""
        lo = self.min_exp
        coeffs = [["0", "1", "0", "1"] for _ in range(self.prec - lo)]
        for e, x in zip(self._exps, self._nums):
            c = Fraction(x, self._den)
            coeffs[e - lo] = [str(c.numerator), str(c.denominator), "0", "1"]
        return {
            "lattice_den": LATTICE_DEN,
            "min_exp": lo,
            "prec": self.prec,
            "coeffs": coeffs,
        }

    @classmethod
    def from_json_obj(cls, obj):
        if obj.get("lattice_den") != LATTICE_DEN:
            raise LatticeError(
                f"lattice mismatch: expected {LATTICE_DEN}, got {obj.get('lattice_den')}"
            )
        min_exp = int(obj["min_exp"])
        coeffs = []
        for k, (rn, rd, sn, sd) in enumerate(obj["coeffs"]):
            im = Fraction(int(sn), int(sd))
            if im:
                raise QSeriesError(
                    f"coefficient entry {k} (lattice exponent {min_exp + k}) has "
                    f"nonzero imaginary part {im}"
                )
            coeffs.append(Fraction(int(rn), int(rd)))
        return cls(min_exp, coeffs, int(obj["prec"]))


# ----------------------------------------------------------------------
# the order-monotone memo


def order_memo(fn):
    """Memoise ``fn(*key, order)`` by the largest order computed so far.

    ``order`` (in q-units) is the last positional argument and the key
    is everything before it, and the result is always a ``Series``.
    Each key keeps only its largest-order result; a smaller positive
    order is served as ``stored.truncate(LATTICE_DEN * order)``, the
    certified prefix it asks for.  An entry is replaced only by a
    larger order, so concurrent callers can at worst compute the same
    result twice.  Orders <= 0 bypass the memo, so their error and pole
    paths still run.
    """
    best = {}  # key -> (order, result)
    store = Lock()  # held only to compare and replace, never around fn

    @wraps(fn)
    def memo(*args):
        key, order = args[:-1], args[-1]
        if order <= 0:
            return fn(*args)
        stored_order, stored = best.get(key, (0, None))
        if stored_order >= order:
            return stored.truncate(LATTICE_DEN * order)
        result = fn(*args)
        with store:
            if best.get(key, (0,))[0] < order:
                best[key] = (order, result)
        return result

    return memo
