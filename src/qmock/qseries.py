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
  lower bounds on the other factors' valuations are enough, and
  ``Series.min_exp`` is that bound: the valuation, or prec for a zero
  series;
* an inverse 1/g is certified below g.prec - 2*val(g); it needs g's
  exact valuation, with g.prec >= val(g) + 1 so its leading term is known;
* a quotient f/g is certified as f * (1/g) is: below
  min(f.prec - val(g), g.prec - 2*val(g) + val(f));
* a sum is certified below the smallest prec of its summands.
So products, quotients, powers and inverses all keep prec - val: F = prod f_i^(e_i)
is certified below P once each f_i has prec >= P - val(F) + val(f_i);
``q_order`` rounds that up to q-units.  Every family of powers comes from
``chain``, one product per power, certified as ``pow_int`` certifies.

Printing.  ``str(series)`` is ``signed_sum`` of its terms, each a
coefficient times q to its exponent in q-units, followed by
``+ O(q^(prec))``: ``-q^-1 + 3 + 1/2*q^(5/24) + O(q^(2))``.  The Z(p,S)
line of ``qmock table`` prints through ``signed_sum`` too, so the two share
one rule for signs, unit coefficients and exponents.  (``qmock reduce-z0``
keeps its own parenthesised ``(c)*Z0hat^d`` form, which turns no signs.)

All values are immutable after construction and all operations are pure
functions, so series may be freely shared between threads.
"""

import sys
from bisect import bisect_left
from collections import namedtuple
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


def _lattice(x, what):
    """``x`` if it is an int (a bool is not), else LatticeError naming it."""
    if type(x) is not int:
        raise LatticeError(f"{what} must be an int of lattice units, got {x!r}")
    return x


def _rational(x):
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational coefficient")


# One nonzero entry of the dense view ``Series.coeffs``: a rational ``re``
# and the complex-shaped ``im`` (always 0) that readers of the view expect.
DenseCoefficient = namedtuple("DenseCoefficient", "re im")

_ZERO = Fraction(0)


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


def _wire_int(value, where):
    """The integer a wire-format field spells (a JSON integer or a decimal
    string), or QSeriesError naming ``where`` and quoting at most the first
    40 characters of the value."""
    if type(value) in (int, str):
        try:
            return int(value)
        except ValueError:
            digits = value.strip().removeprefix("-").removeprefix("+")
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and digits.isdecimal() and len(digits) > limit:
                raise QSeriesError(
                    f"{where} holds a {len(digits)}-digit integer ({value[:20]}...), over "
                    f"the interpreter's integer-string limit of {limit} digits"
                ) from None
    shown = repr(value)
    shown = shown if len(shown) <= 40 else shown[:40] + "..."
    raise QSeriesError(f"{where} holds {shown}, not an integer")


def _decimal_digits(n):
    """The number of decimal digits of |n|, counted without a string."""
    n = abs(n)
    digits = max(1, int(n.bit_length() * 0.30103) - 1)  # never above the count
    while n >= 10**digits:
        digits += 1
    return digits


def _power(symbol, e):
    if e == 1:
        return symbol
    return f"{symbol}^{e}" if e.denominator == 1 else f"{symbol}^({e})"


def signed_sum(terms):
    """The text ``c1*m1 + c2*m2 - ...`` of ``terms``, pairs of a nonzero
    rational c and a monomial given as [(symbol, exponent), ...], or "" for
    no terms.  A factor of exponent 0 is dropped, exponent 1 prints the bare
    symbol and a non-integer exponent is parenthesised; a coefficient of +-1
    is dropped before a monomial, and a negative one turns its joining sign."""
    out = []
    for c, factors in terms:
        mono = "*".join([_power(sym, e) for sym, e in factors if e])
        s = str(c)
        neg = s[0] == "-"
        mag = s[1:] if neg else s
        out.append((" - " if out else "-") if neg else (" + " if out else ""))
        out.append(mag if not mono else mono if mag == "1" else f"{mag}*{mono}")
    return "".join(out)


def _names_over_long_coefficients(method):
    """``method`` of a Series, which turns the interpreter's bare ValueError
    for an integer longer than it converts to a string into a QSeriesError
    naming the first such coefficient, its digit count and the limit."""
    @wraps(method)
    def wrapper(self):
        try:
            return method(self)
        except ValueError:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            for e, x in zip(self._exps, self._nums):
                c = Fraction(x, self._den)
                for part, n in (("numerator", c.numerator), ("denominator", c.denominator)):
                    digits = _decimal_digits(n)
                    if digits > limit > 0:
                        raise QSeriesError(
                            f"coefficient at lattice exponent {e} has a {digits}-digit "
                            f"{part}, over the interpreter's integer-string limit of "
                            f"{limit} digits"
                        ) from None
            raise

    return wrapper


def _series(prec, exps, nums, den):
    """A Series from canonical sparse fields, without any checking."""
    s = object.__new__(Series)
    s.prec = prec
    s._exps = exps
    s._nums = nums
    s._den = den
    return s


def _pack(prec, exps, nums, den):
    return _series(prec, *_canonical(exps, nums, den))


class Series:
    """Truncated Laurent series on the lattice (1/24)Z.

    The series is asserted correct for every exponent strictly below
    ``prec`` lattice units, so every term below the first stored one is
    known to be zero.  A series is its value: two equal series have the
    same fields, and ``min_exp``, where the dense view ``coeffs`` and the
    wire format start, is derived from them.

    Only nonzero terms are stored, over one common denominator: ``_exps``
    holds their ascending lattice exponents, ``_nums`` their integer
    numerators, and ``_den`` the positive denominator, in lowest terms
    with all numerators.  The coefficient at ``_exps[i]`` is
    ``_nums[i] / _den``.
    """

    __slots__ = ("prec", "_exps", "_nums", "_den")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, prec):
        return _series(_lattice(prec, "prec"), [], [], 1)

    @classmethod
    def monomial(cls, exp24, coeff=1, *, prec):
        """c * q^(exp24/24), known up to (but excluding) prec."""
        coeff = _rational(coeff)
        if _lattice(exp24, "exponent") >= _lattice(prec, "prec") or not coeff:
            return cls.zero(prec)
        return _series(prec, [exp24], [coeff.numerator], coeff.denominator)

    @classmethod
    def one(cls, prec):
        return cls.monomial(0, 1, prec=prec)

    @classmethod
    def from_pairs(cls, pairs, *, prec):
        """Series from (exp24, coefficient) pairs; later pairs accumulate.
        Plain ints are used as they are, other rationals as Fractions.  An
        exponent or prec that is not an int raises LatticeError, here and in
        ``zero`` and ``monomial``."""
        _lattice(prec, "prec")
        exact = ((e if type(e) is int else _lattice(e, "exponent"),
                  c if type(c) is int else _rational(c)) for e, c in pairs)
        return _series(prec, *_rational_terms([(e, c) for e, c in exact if e < prec and c]))

    # ------------------------------------------------------------------
    # inspection

    @property
    def coeffs(self):
        """Dense view, built on demand: the coefficient of
        q^((min_exp + k)/24) for each k < prec - min_exp, as a
        DenseCoefficient, or None where it is zero."""
        lo = self.min_exp
        out = [None] * (self.prec - lo)
        for e, x in zip(self._exps, self._nums):
            out[e - lo] = DenseCoefficient(Fraction(x, self._den), _ZERO)
        return tuple(out)

    def support(self):
        """Lattice exponents with nonzero coefficient, ascending."""
        return tuple(self._exps)

    def val(self):
        """Lattice exponent of the first nonzero term, or None if zero."""
        return self._exps[0] if self._exps else None

    @property
    def min_exp(self):
        """The valuation, or ``prec`` for the zero series: a lower bound on
        every term, and where the dense view and the wire format start."""
        return self._exps[0] if self._exps else self.prec

    def is_zero(self):
        return not self._exps

    def coefficient(self, exp24):
        """Exact coefficient of q^(exp24/24), as a Fraction.

        Below the valuation the series is entire, so 0 is returned; at or
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

    def constant_term(self):
        return self.coefficient(0)

    def truncate(self, prec):
        """Restrict certification to exponents below ``prec``."""
        if prec >= self.prec:
            return self
        n = bisect_left(self._exps, prec)
        return _pack(prec, self._exps[:n], self._nums[:n], self._den)

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
        if isinstance(other, Series):
            return Series.combine([(1, self), (-1, other)])
        return self.__add__(-_rational(other))

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
        prec; terms that cancel are dropped, so it starts at its own
        valuation.
        """
        if den < 1:
            raise ValueError("the common denominator must be a positive integer")
        pairs = list(pairs)
        prec = min(s.prec for _, s in pairs)
        live = [(c, s) for c, s in pairs if c]
        if len(live) == 1:  # one series: scale its numerators, no accumulation
            c, s = live[0]
            n = bisect_left(s._exps, prec)
            return _pack(prec, s._exps[:n], [x * c for x in s._nums[:n]], s._den * den)
        common = lcm(*(s._den for _, s in live))
        acc = {}
        get = acc.get
        for c, s in live:
            f = c * (common // s._den)
            for e, x in zip(s._exps[: bisect_left(s._exps, prec)], s._nums):
                acc[e] = get(e, 0) + x * f
        exps = sorted(acc)
        return _pack(prec, exps, [acc[e] for e in exps], common * den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        a, b = self, other
        ea, eb = a.min_exp, b.min_exp
        prec = min(a.prec + eb, b.prec + ea)
        if not a._exps or not b._exps or ea + eb >= prec:
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
        return _pack(prec, exps, [acc[k] for k in exps], a._den * b._den)

    __rmul__ = __mul__

    def pairing(self, other):
        """CT[self * other] = sum_e self_e * other_(-e), read without forming
        the product.  Certified as the product is, so it raises
        InsufficientPrecision (needed=1) exactly where
        ``(self * other).constant_term()`` would."""
        prec = min(self.prec + other.min_exp, other.prec + self.min_exp)
        if prec <= 0:
            raise InsufficientPrecision(
                f"constant term of a product requested, but the product is only "
                f"certified below {prec}",
                needed=1,
            )
        get = dict(zip(other._exps, other._nums)).get
        num = sum(x * get(-e, 0) for e, x in zip(self._exps, self._nums))
        return Fraction(num, self._den * other._den)

    def __truediv__(self, other):
        """Exact quotient, equal to ``self * other.invert()`` (prec and
        min_exp too) without the dense inverse.  With self = q^w F / D_f,
        other = q^v A / D_g and integer series F, A in q^g: F/A = sum_t H_t
        q^(t*g) / A_0^(t+1), H_t = F_t A_0^t - sum_{s>=1} A_s A_0^(s-1) H_(t-s),
        so each output slot costs one product per term of A."""
        if isinstance(other, (int, Fraction)):
            return self.scale(1 / _rational(other))
        if not isinstance(other, Series):
            return NotImplemented
        if not other._exps:
            raise NotInvertible("series has no determined nonzero coefficient")
        v = other._exps[0]
        w = self.min_exp
        prec = min(self.prec - v, other.prec - 2 * v + w)
        lo = w - v
        if not self._exps or lo >= prec:
            return Series.zero(prec)
        depth = prec - lo
        a_exps = other._exps[1 : bisect_left(other._exps, v + depth)]
        f_exps = self._exps[: bisect_left(self._exps, w + depth)]
        g = gcd(*(e - v for e in a_exps), *(e - w for e in f_exps)) or depth
        count = (depth - 1) // g + 1  # progression slots below the precision
        lead = other._nums[0]
        tail = [((e - v) // g, x * lead ** ((e - v) // g - 1))
                for e, x in zip(a_exps, other._nums[1:])]
        h = [0] * count
        for e, x in zip(f_exps, self._nums):
            t = (e - w) // g
            h[t] = x * lead**t
        for t in range(1, count):
            acc = 0
            for s, x in tail:
                if s > t:
                    break
                acc += x * h[t - s]
            h[t] -= acc
        # term t is D_g H_t / (D_f A_0^(t+1)): bring every term over |A_0^count|
        den = lead**count
        lift = other._den if den > 0 else -other._den
        for t in range(count - 1, -1, -1):
            h[t] *= lift
            lift *= lead
        return _pack(prec, range(lo, lo + count * g, g), h, self._den * abs(den))

    def invert(self):
        """Multiplicative inverse, exact to precision prec - 2*val: the
        quotient 1/self (which raises NotInvertible for a zero series)."""
        return Series.one(self.prec - (self.val() or 0)) / self

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
        return _pack(self.prec, exps, [x * e for e, x in zip(exps, self._nums)],
                     self._den * LATTICE_DEN)

    def rescale_exponents(self, num, den):
        """Substitute q -> q^(num/den); exponents scale by num/den.

        Every nonzero exponent must land back on the lattice, otherwise
        LatticeError is raised.  Precision rescales the same way, rounded
        up when ``den`` does not divide it, so a 1/8-then-8 round trip can
        claim up to 7 more lattice units than its input.  That is true
        only for a series in q^8; ``brackets.bracket_hat`` truncates back.
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
        return _series(new_prec, exps, self._nums, self._den)

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
        return _pack(self.prec, [self._exps[i] for i in kept], [self._nums[i] for i in kept],
                     self._den)

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

    @_names_over_long_coefficients
    def __str__(self):
        body = signed_sum((Fraction(x, self._den), [("q", Fraction(e, LATTICE_DEN))])
                          for e, x in zip(self._exps, self._nums))
        tail = f"O(q^({Fraction(self.prec, LATTICE_DEN)}))"
        return f"{body} + {tail}" if body else tail

    # ------------------------------------------------------------------
    # JSON wire format

    @_names_over_long_coefficients
    def to_json_obj(self):
        """The exact interchange form: integers as decimal strings, one
        entry for every exponent from min_exp (the valuation, or prec for
        the zero series) up to prec.  Each entry is
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
        """Read the interchange form back; leading zero entries are accepted
        and dropped.  Malformed input raises QSeriesError naming the key or
        entry at fault (LatticeError for a lattice mismatch)."""
        if not isinstance(obj, dict):
            raise QSeriesError(f"a series must be a JSON object, not {type(obj).__name__}")
        if obj.get("lattice_den") != LATTICE_DEN:
            raise LatticeError(
                f"lattice mismatch: expected {LATTICE_DEN}, got {obj.get('lattice_den')}"
            )
        for key in ("min_exp", "prec", "coeffs"):
            if key not in obj:
                raise QSeriesError(f"series object has no {key!r} key")
        min_exp = _wire_int(obj["min_exp"], "key 'min_exp'")
        prec = _wire_int(obj["prec"], "key 'prec'")
        if not isinstance(obj["coeffs"], list):
            raise QSeriesError(f"key 'coeffs' holds {obj['coeffs']!r}, not a list")
        pairs = []
        for k, entry in enumerate(obj["coeffs"]):
            where = f"coefficient entry {k} (lattice exponent {min_exp + k})"
            if not isinstance(entry, list) or len(entry) != 4:
                raise QSeriesError(f"{where} is {entry!r}, not [re_num, re_den, im_num, im_den]")
            rn, rd, sn, sd = (_wire_int(x, where) for x in entry)
            if not rd or not sd:
                raise QSeriesError(f"{where} has a zero denominator")
            im = Fraction(sn, sd)
            if im:
                raise QSeriesError(f"{where} has nonzero imaginary part {im}")
            pairs.append((min_exp + k, Fraction(rn, rd)))
        if min_exp > prec:
            raise QSeriesError(f"series object: min_exp {min_exp} exceeds prec {prec}")
        if len(pairs) != prec - min_exp:
            raise QSeriesError(f"series object: coefficient count {len(pairs)} != "
                               f"prec - min_exp = {prec - min_exp}")
        return cls.from_pairs(pairs, prec=prec)


def chain(first, step, n):
    """The tuple first * step^j, j = 0..n, one product per j: every family
    of powers in the package.  Each product keeps prec - val, so
    ``chain(x.pow_int(0), x, n)[j]`` equals ``x.pow_int(j)``, prec too."""
    out = [first]
    for _ in range(n):
        out.append(out[-1] * step)
    return tuple(out)


# ----------------------------------------------------------------------
# the size-monotone memos


def _monotone_memo(fn, least, serve):
    """Memoise ``fn(*key, size)`` by the largest size computed so far.

    ``size`` is the last positional argument and the key is everything
    before it.  Each key keeps only its largest-size result; a size from
    ``least`` up to the stored one is served as ``serve(stored, size)``.
    An entry is replaced only by a larger size, so concurrent callers can
    at worst compute the same result twice.  Sizes below ``least`` bypass
    the memo, so their error paths still run.
    """
    best = {}  # key -> (size, result)
    store = Lock()  # held only to compare and replace, never around fn

    @wraps(fn)
    def memo(*args):
        key, size = args[:-1], args[-1]
        if size < least:
            return fn(*args)
        stored_size, stored = best.get(key, (least - 1, None))
        if stored_size >= size:
            return serve(stored, size)
        result = fn(*args)
        with store:
            if best.get(key, (least - 1,))[0] < size:
                best[key] = (size, result)
        return result

    return memo


def order_memo(fn):
    """Memoise ``fn(*key, order)``, a ``Series`` builder, by the largest
    order (in q-units) computed so far: a smaller positive order is
    served as ``stored.truncate(LATTICE_DEN * order)``, the certified
    prefix it asks for.  Orders <= 0 bypass the memo, so their error and
    pole paths still run."""
    return _monotone_memo(fn, 1, lambda stored, order: stored.truncate(LATTICE_DEN * order))


def degree_memo(fn):
    """Memoise ``fn(*key, degree)``, which returns one entry per degree
    0..degree, by the largest degree computed so far: a smaller degree is
    served as the stored prefix of its length.  Negative degrees bypass
    the memo."""
    return _monotone_memo(fn, 0, lambda stored, degree: stored[: degree + 1])
