"""Exact truncated Laurent series over the Gaussian rationals.

Every q-expansion in this package lives on the exponent lattice (1/24)Z:
an exponent is stored as an integer number of lattice units, i.e. 24ths
of a power of q.  A series knows its coefficients exactly for all
exponents strictly below ``prec`` (also in lattice units).  Coefficients
are Gaussian rationals a + b*i with Fraction components, which is enough
to hold every phase that appears when Jacobi theta functions are
specialised at half-period arguments.

A Series stores only its nonzero terms, as integer numerators over one
common denominator, so the ring operations run on plain integers and
cost time in proportion to the nonzero terms, not to the lattice slots
they span.  GaussRat is the scalar type at the API edge.

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
from operator import or_
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


class NonRealCoefficient(QSeriesError):
    """assert_real found a coefficient with nonzero imaginary part."""


def _frac(x):
    return x if type(x) is Fraction else Fraction(x)


class GaussRat:
    """A Gaussian rational re + im*i, exact in both components.

    Field operations are exact; division by 0 raises ZeroDivisionError.
    Values are kept in canonical (lowest-terms) form by Fraction itself.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @property
    def is_real(self):
        return not self.im

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __add__(self, other):
        other = _as_gauss(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gauss(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_gauss(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussRat(self.re * other, self.im * other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        # fast path: purely real factors dominate in practice
        if not self.im and not other.im:
            return GaussRat(self.re * other.re)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gauss(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not self.im and not other.im:
            return GaussRat(self.re / other.re)
        conj = other.conjugate()
        num = self * conj
        return GaussRat(num.re / norm, num.im / norm)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{istr}"


def _as_gauss(x):
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)

#: e^{pi*i*t/2} for integer t: the four Gaussian units.
QUARTER_PHASES = (GR_ONE, GR_I, -GR_ONE, -GR_I)


def quarter_phase(t):
    """e^{pi*i*t/2} for an integer t."""
    return QUARTER_PHASES[t % 4]


def _ceil_div(a, b):
    return -((-a) // b)


def q_order(prec):
    """The smallest order >= 1 in q-units that reaches ``prec`` lattice units
    (an int or a Fraction): the only place that rounds lattice to q-units."""
    return max(1, _ceil_div(prec, LATTICE_DEN))


def _canonical(exps, re, im, den):
    """Drop zero terms and reduce numerators and denominator to lowest terms.

    ``exps`` ascending, ``re``/``im`` integer numerators aligned with it
    (``im`` may be None), ``den`` a positive integer.  Returns the four
    fields of the canonical sparse store; ``im`` becomes None when no
    imaginary numerator survives.
    """
    if im is None:
        exps = list(compress(exps, re))
        re = list(filter(None, re))
    else:
        mask = list(map(or_, re, im))
        exps = list(compress(exps, mask))
        re = list(compress(re, mask))
        im = list(compress(im, mask))
        if not any(im):
            im = None
    if not exps:
        return [], [], None, 1
    if den != 1:
        g = gcd(den, *re, *im) if im else gcd(den, *re)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            if im:
                im = [x // g for x in im]
    return exps, re, im, den


def _gauss_terms(pairs):
    """Canonical sparse fields of (exp24, GaussRat) pairs; repeats accumulate."""
    den = lcm(*(x.denominator for _, c in pairs for x in (c.re, c.im)))
    re_acc = {}
    im_acc = {}
    for e, c in pairs:
        re_acc[e] = re_acc.get(e, 0) + c.re.numerator * (den // c.re.denominator)
        im_acc[e] = im_acc.get(e, 0) + c.im.numerator * (den // c.im.denominator)
    exps = sorted(re_acc)
    return _canonical(exps, [re_acc[e] for e in exps], [im_acc[e] for e in exps], den)


def _series(min_exp, prec, exps, re, im, den):
    """A Series from canonical sparse fields, without any checking."""
    s = object.__new__(Series)
    s.min_exp = min_exp
    s.prec = prec
    s._exps = exps
    s._re = re
    s._im = im
    s._den = den
    return s


def _pack(min_exp, prec, exps, re, im, den):
    return _series(min_exp, prec, *_canonical(exps, re, im, den))


class Series:
    """Truncated Laurent series on the lattice (1/24)Z.

    The series is asserted correct for every exponent strictly below
    ``prec`` lattice units.  Exponents below ``min_exp`` are genuinely
    zero: all constructors and operations in this package produce the
    complete expansion from the true valuation upward.  ``min_exp`` may
    lie below the first nonzero term; it is where the dense view
    ``coeffs`` and the wire format start.

    Only nonzero terms are stored, over one common denominator: ``_exps``
    holds their ascending lattice exponents, ``_re`` and ``_im`` their
    integer real and imaginary numerators (``_im`` is None for a real
    series), and ``_den`` the positive denominator, in lowest terms with
    all numerators.  The coefficient at ``_exps[i]`` is
    ``(_re[i] + _im[i]*i) / _den``.
    """

    __slots__ = ("min_exp", "prec", "_exps", "_re", "_im", "_den")

    lattice_den = LATTICE_DEN

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
        self._exps, self._re, self._im, self._den = _gauss_terms(
            [(min_exp + k, c) for k, c in enumerate(map(_as_gauss, coeffs)) if c]
        )

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, prec):
        return _series(prec, prec, [], [], None, 1)

    @classmethod
    def monomial(cls, exp24, coeff=1, *, prec):
        """c * q^(exp24/24), known up to (but excluding) prec."""
        coeff = _as_gauss(coeff)
        if exp24 >= prec or not coeff:
            return cls.zero(prec)
        return _series(exp24, prec, *_gauss_terms([(exp24, coeff)]))

    @classmethod
    def one(cls, prec):
        return cls.monomial(0, 1, prec=prec)

    @classmethod
    def from_pairs(cls, pairs, *, prec):
        """Series from (exp24, coefficient) pairs; later pairs accumulate."""
        live = [(e, c) for e, c in ((e, _as_gauss(c)) for e, c in pairs) if e < prec and c]
        if not live:
            return cls.zero(prec)
        return _series(min(e for e, _ in live), prec, *_gauss_terms(live))

    # ------------------------------------------------------------------
    # inspection

    def _gauss(self, i):
        """The i-th stored nonzero coefficient as a GaussRat."""
        im = self._im[i] if self._im else 0
        return GaussRat(Fraction(self._re[i], self._den), Fraction(im, self._den))

    @property
    def coeffs(self):
        """Dense view, built on demand: the coefficient of
        q^((min_exp + k)/24) for each k < prec - min_exp."""
        lo = self.min_exp
        out = [GR_ZERO] * (self.prec - lo)
        for i, e in enumerate(self._exps):
            out[e - lo] = self._gauss(i)
        return tuple(out)

    def support(self):
        """Lattice exponents with nonzero coefficient, ascending."""
        return tuple(self._exps)

    def val(self):
        """Lattice exponent of the first nonzero term, or None if zero."""
        return self._exps[0] if self._exps else None

    def is_zero(self):
        return not self._exps

    def is_real(self):
        return self._im is None

    def coefficient(self, exp24):
        """Exact coefficient of q^(exp24/24).

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
            return self._gauss(i)
        return GR_ZERO

    def coefficient_q(self, exponent):
        """Coefficient at a q-exponent given as int or Fraction."""
        e24 = Fraction(exponent) * LATTICE_DEN
        if e24.denominator != 1:
            raise LatticeError(f"exponent {exponent} is not on the (1/24)Z lattice")
        return self.coefficient(int(e24))

    def constant_term(self):
        return self.coefficient(0)

    def normalized(self):
        """Copy with leading zero coefficients trimmed (canonical form)."""
        v = self.val()
        if v is None:
            return Series.zero(self.prec)
        if v == self.min_exp:
            return self
        return _series(v, self.prec, self._exps, self._re, self._im, self._den)

    def truncate(self, prec):
        """Restrict certification to exponents below ``prec``."""
        if prec >= self.prec:
            return self
        if prec <= self.min_exp:
            return Series.zero(prec)
        n = bisect_left(self._exps, prec)
        im = self._im[:n] if self._im else None
        return _pack(self.min_exp, prec, self._exps[:n], self._re[:n], im, self._den)

    # ------------------------------------------------------------------
    # ring operations

    def __neg__(self):
        im = [-x for x in self._im] if self._im else None
        return _series(
            self.min_exp, self.prec, self._exps, [-x for x in self._re], im, self._den
        )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Series.monomial(0, other, prec=self.prec)
        if not isinstance(other, Series):
            return NotImplemented
        prec = min(self.prec, other.prec)
        lo = min(self.min_exp, other.min_exp, prec)
        den = lcm(self._den, other._den)
        na = bisect_left(self._exps, prec)
        nb = bisect_left(other._exps, prec)
        exps = sorted(set(self._exps[:na]).union(other._exps[:nb]))
        slot = {e: k for k, e in enumerate(exps)}
        re = [0] * len(exps)
        im = [0] * len(exps) if self._im or other._im else None
        for s, n in ((self, na), (other, nb)):
            f = den // s._den
            for e, x in zip(s._exps[:n], s._re):
                re[slot[e]] += x * f
            if s._im:
                for e, x in zip(s._exps[:n], s._im):
                    im[slot[e]] += x * f
        return _pack(lo, prec, exps, re, im, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Series) else -_as_gauss(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c):
        """Multiply every coefficient by the scalar c."""
        c = _as_gauss(c)
        if not c:
            return Series.zero(self.prec)
        if c == GR_ONE:
            return self
        q = lcm(c.re.denominator, c.im.denominator)
        cr = c.re.numerator * (q // c.re.denominator)
        ci = c.im.numerator * (q // c.im.denominator)
        re, im = self._re, self._im
        if not ci:
            new_re = [x * cr for x in re]
            new_im = [y * cr for y in im] if im else None
        else:
            im = im or [0] * len(re)
            new_re = [x * cr - y * ci for x, y in zip(re, im)]
            new_im = [x * ci + y * cr for x, y in zip(re, im)]
        return _pack(self.min_exp, self.prec, self._exps, new_re, new_im, self._den * q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
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
        re_acc = {}
        re_get = re_acc.get
        if a._im is None and b._im is None:
            im_acc = None
            b_terms = list(zip(b._exps, b._re))
            for e, x in zip(a._exps, a._re):
                lim = prec - e
                for f, y in b_terms:
                    if f >= lim:
                        break
                    k = e + f
                    re_acc[k] = re_get(k, 0) + x * y
        else:
            im_acc = {}
            im_get = im_acc.get
            b_terms = list(zip(b._exps, b._re, b._im or [0] * len(b._exps)))
            for e, xr, xi in zip(a._exps, a._re, a._im or [0] * len(a._exps)):
                lim = prec - e
                for f, yr, yi in b_terms:
                    if f >= lim:
                        break
                    k = e + f
                    re_acc[k] = re_get(k, 0) + xr * yr - xi * yi
                    im_acc[k] = im_get(k, 0) + xr * yi + xi * yr
        exps = sorted(re_acc)
        im = None if im_acc is None else [im_acc[k] for k in exps]
        return _pack(lo, prec, exps, [re_acc[k] for k in exps], im, a._den * b._den)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse, exact to precision prec - 2*val.

        The inverse of q^v * u is q^(-v) / u; the unit part is inverted
        by the standard convolution recurrence, restricted to the
        arithmetic progression actually supported by u (the inverse of a
        series in q^g is again a series in q^g).

        The recurrence runs on integers.  Write u = A / D with A = sum_t
        A_t q^(t*g) over the Gaussian integers, and 1/A_0 = M / N with N
        a rational integer.  Then 1/A = sum_t C_t q^(t*g) / N^(t+1) with
        C_0 = M and C_t = -M * sum_{s>=1} A_s N^(s-1) C_(t-s).
        """
        exps = self._exps
        if not exps:
            raise NotInvertible("series has no determined nonzero coefficient")
        v = exps[0]
        length = self.prec - v  # relative certification of the unit part
        out_prec = self.prec - 2 * v
        if len(exps) == 1:
            return Series.monomial(-v, GR_ONE / self._gauss(0), prec=out_prec)
        rel = [e - v for e in exps[1:]]
        g = gcd(*rel)
        count = (length - 1) // g + 1  # progression slots below the precision
        re, im = self._re, self._im
        if im and im[0]:
            mr, mi, n_den = re[0], -im[0], re[0] * re[0] + im[0] * im[0]
        else:
            mr, mi, n_den = 1, 0, re[0]
        if im is None:
            tail = [(e // g, x * n_den ** (e // g - 1)) for e, x in zip(rel, re[1:])]
            c_re = [0] * count
            c_re[0] = 1
            for t in range(1, count):
                acc = 0
                for s, x in tail:
                    if s > t:
                        break
                    acc += x * c_re[t - s]
                c_re[t] = -acc
            c_im = None
        else:
            tail = [
                (e // g, x * n_den ** (e // g - 1), y * n_den ** (e // g - 1))
                for e, x, y in zip(rel, re[1:], im[1:])
            ]
            c_re = [0] * count
            c_im = [0] * count
            c_re[0], c_im[0] = mr, mi
            for t in range(1, count):
                sr = si = 0
                for s, xr, xi in tail:
                    if s > t:
                        break
                    yr, yi = c_re[t - s], c_im[t - s]
                    sr += xr * yr - xi * yi
                    si += xr * yi + xi * yr
                c_re[t] = mi * si - mr * sr
                c_im[t] = -(mr * si + mi * sr)
        # term t is D * C_t / N^(t+1): bring every term over |N^count|
        den = n_den**count
        lift = self._den if den > 0 else -self._den
        for t in range(count - 1, -1, -1):
            c_re[t] *= lift
            if c_im:
                c_im[t] *= lift
            lift *= n_den
        exps_out = range(-v, -v + count * g, g)
        return _pack(-v, out_prec, exps_out, c_re, c_im, abs(den))

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
        im = [y * e for e, y in zip(exps, self._im)] if self._im else None
        return _pack(
            self.min_exp,
            self.prec,
            exps,
            [x * e for e, x in zip(exps, self._re)],
            im,
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
        return _series(exps[0], new_prec, exps, self._re, self._im, self._den)

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
        re, im = self._re, self._im
        return _pack(
            self._exps[kept[0]],
            self.prec,
            [self._exps[i] for i in kept],
            [re[i] for i in kept],
            [im[i] for i in kept] if im else None,
            self._den,
        )

    def assert_real(self):
        """Certify that every coefficient is real, or raise; returns self."""
        if self._im:
            i = next(i for i, y in enumerate(self._im) if y)
            raise NonRealCoefficient(
                f"imaginary part {Fraction(self._im[i], self._den)} at exponent "
                f"q^({Fraction(self._exps[i], LATTICE_DEN)})"
            )
        return self

    # ------------------------------------------------------------------
    # comparison and display

    def _terms(self):
        return (self._exps, self._re, self._im, self._den)

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
        for i, e in enumerate(self._exps):
            c = self._gauss(i)
            exp = Fraction(e, LATTICE_DEN)
            if exp == 0:
                mono = ""
            elif exp == 1:
                mono = "q"
            elif exp.denominator == 1:
                mono = f"q^{exp}"
            else:
                mono = f"q^({exp})"
            cs = str(c)
            if not c.is_real and c.re:
                cs = f"({cs})"
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
        entry for every exponent from min_exp up to prec."""
        lo = self.min_exp
        coeffs = [["0", "1", "0", "1"] for _ in range(self.prec - lo)]
        for i, e in enumerate(self._exps):
            c = self._gauss(i)
            coeffs[e - lo] = [
                str(c.re.numerator),
                str(c.re.denominator),
                str(c.im.numerator),
                str(c.im.denominator),
            ]
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
        coeffs = [
            GaussRat(Fraction(int(rn), int(rd)), Fraction(int(sn), int(sd)))
            for rn, rd, sn, sd in obj["coeffs"]
        ]
        return cls(int(obj["min_exp"]), coeffs, int(obj["prec"]))


# ----------------------------------------------------------------------
# the order-monotone memo


def order_memo(fn):
    """Memoise ``fn(*key, order)`` by the largest order computed so far.

    ``order`` (in q-units) is the last positional argument and the key
    is everything before it.  Each key keeps only its largest-order
    result, which must have a ``truncate``; a smaller positive order is
    served as ``stored.truncate(LATTICE_DEN * order)``, the certified
    prefix it asks for.  An entry is replaced only by a larger order, so
    concurrent callers can at worst compute the same result twice.
    Orders <= 0 bypass the memo, so their error and pole paths still run.
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
