"""Classical modular objects: eta quotients, theta functions, E2, E*, Z0hat.

Two independent construction routes are kept on purpose: the small theta
functions theta2/3/4 are ``theta_char``'s defining sums at the origin,
while the rescaled Theta2/3/4 come from eta quotients (with the direct
sums available for cross-checking).  Transcription errors in either
route are caught by the identities
theta_j(tau) = (2 if j==2 else 1) * Theta_j(tau/8).

The eta and theta sums here and mock's Appell-Lerch sum take their terms
from one scan, ``below``: each exponent is convex in the summation index,
so the terms below a precision are scanned outward from its minimum, and
each side stops at its first exponent at or above the precision.
"""

from collections import namedtuple
from fractions import Fraction

from .qseries import LATTICE_DEN, QSeriesError, Series, order_memo, q_order


class PhaseError(QSeriesError):
    """A theta/mu argument would need phases outside {1, i, -1, -i}."""


def _make(cls, iterable):
    """namedtuple's ``_make``, and so ``_replace``, through the validating ``__new__``."""
    return cls(*iterable)


class EtaQuotientSpec(namedtuple("EtaQuotientSpec", "factors")):
    """Formal product prod_i eta(k_i * tau)^(e_i)."""

    __slots__ = ()
    _make = classmethod(_make)

    def __new__(cls, factors):  # factors: (multiplier, exponent) pairs
        factors = tuple((int(k), int(e)) for k, e in factors)
        for k, _ in factors:
            if k < 1:
                raise ValueError(f"eta multiplier must be positive, got {k}")
        return super().__new__(cls, factors)

    def prefactor_exp24(self):
        """Lattice exponent of the leading q-power, sum of k*e."""
        return sum(k * e for k, e in self.factors)


class HalfPeriodPoint(namedtuple("HalfPeriodPoint", "r s")):
    """The argument v = r + s*tau with r, s in (1/2)Z, held as Fractions."""

    __slots__ = ()
    _make = classmethod(_make)

    def __new__(cls, r, s):
        r = Fraction(r)
        s = Fraction(s)
        if r.denominator > 2:
            raise PhaseError(f"r = {r} has denominator > 2; phases leave {{1,i,-1,-i}}")
        if s.denominator > 2:
            raise PhaseError(f"s = {s} has denominator > 2; exponents leave the lattice")
        return super().__new__(cls, r, s)

    @property
    def r2(self):
        """2r as an integer."""
        return int(self.r * 2)

    @property
    def s2(self):
        """2s as an integer."""
        return int(self.s * 2)

    def is_lattice_point(self):
        """True when v lies in Z + Z*tau (where theta_1 vanishes)."""
        return self.r.denominator == 1 and self.s.denominator == 1


# the three half-periods entering H(tau), plus the origin
V_HALF = HalfPeriodPoint(Fraction(1, 2), Fraction(0))
V_ONE_PLUS_TAU_HALF = HalfPeriodPoint(Fraction(1, 2), Fraction(1, 2))
V_TAU_HALF = HalfPeriodPoint(Fraction(0), Fraction(1, 2))
V_ZERO = HalfPeriodPoint(Fraction(0), Fraction(0))


def below(exponent, start, bound):
    """The integers n with exponent(n) < bound, for an exponent that does
    not fall going outward from ``start`` or from ``start - 1``: a convex
    one with its minimum at either.  Both sides are scanned outward, each
    up to its first exponent >= bound."""
    out = []
    for n, step in ((start, 1), (start - 1, -1)):
        while exponent(n) < bound:
            out.append(n)
            n += step
    return out


def _eta_lattice(k, prec):
    """eta(k*tau) certified below ``prec`` lattice units.

    Pentagonal number expansion: prod (1-q^n) = sum_j (-1)^j q^(j(3j-1)/2),
    so eta(k*tau) has lattice exponents k*(1 + 12*j*(3j-1)), least at j = 0.
    """
    def exp24(j):
        return k * (1 + 12 * j * (3 * j - 1))

    return Series.from_pairs([(exp24(j), -1 if j % 2 else 1) for j in below(exp24, 0, prec)],
                             prec=prec)


def eta(k, order):
    """q-expansion of eta(k*tau) to the given order in q-units; order 0
    certifies the empty prefix.  k must be a positive int: the scan needs
    exponents that climb going outward."""
    if type(k) is not int or k < 1:
        raise ValueError(f"eta multiplier must be a positive int, got {k!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _eta_lattice(k, LATTICE_DEN * order)


@order_memo
def eta_cube(order):
    """eta(tau)^3 to the given order in q-units: the cube of ``eta``'s
    pentagonal sum, which keeps eta's prec - val, so eta certified 2
    lattice units short of the order is enough.  Jacobi's sparse sum for
    eta^3 is the ``jacobi-eta-cube`` oracle, not a second builder."""
    return eta(1, q_order(LATTICE_DEN * order - 2)).pow_int(3).truncate(LATTICE_DEN * order)


def eta_quotient(spec, order):
    """Exact expansion of an eta quotient to ``order`` q-units."""
    prec_target = LATTICE_DEN * order
    rel = prec_target - spec.prefactor_exp24()
    # eta(k*tau) has val k: it needs rel + k, and k + 1 so a divisor sees its lead
    result = Series.one(rel)
    for k, e in spec.factors:
        factor = _eta_lattice(k, max(rel + k, k + 1))
        # one sparse factor at a time: its powers and its inverse are dense, and
        # each step keeps prec - val, so e steps certify what factor^e would
        for _ in range(abs(e)):
            result = result * factor if e > 0 else result / factor
    return result.truncate(prec_target)


def theta_char(a, b, v, order):
    """Jacobi theta with characteristics at v = r + s*tau, as a pair
    ``(p, series)``: theta = i^p * series, with the quarter-turn count
    p = a(2r+b) mod 4 and a rational series.

    Term n carries q^((2n+a)^2/8 + (2n+a)s/2) and the phase
    e^(pi*i*(2n+a)(r+b/2)) = i^((2n+a)(2r+b)) = i^p * (-1)^(n(2r+b)), so
    the series holds the signs (-1)^(n(2r+b)); exponents stay on the
    lattice because r, s have denominator at most 2.
    """
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("theta characteristics must be 0 or 1")
    v = HalfPeriodPoint(*v)
    prec = LATTICE_DEN * order
    turn = v.r2 + b  # 2r + b
    s2 = v.s2

    def exp24(n):
        m = 2 * n + a
        return 3 * m * m + 6 * s2 * m

    # the exponent 3(m + 2s)^2 - 12s^2 is least at m = 2n + a = -2s
    pairs = [(exp24(n), -1 if n * turn % 2 else 1) for n in below(exp24, (-s2 - a) // 2, prec)]
    return a * turn % 4, Series.from_pairs(pairs, prec=prec)


def theta_char_val(a, v):
    """Exponent of theta_char(a, b, v)'s first term: a lower bound on its
    valuation, exact for theta_1 (a = b = 1) off the lattice points."""
    return 3 * ((a + v.s2) % 2 - v.s2**2)


# the characteristics (a, b) of theta_j(z|tau) = theta_char(a, b, z) for j = 2, 3, 4
THETA_CHARS = {2: (1, 0), 3: (0, 0), 4: (0, 1)}


@order_memo
def theta_nullwert(j, order):
    """theta_j(0|tau) for j = 2, 3, 4: theta_char at the origin (phase 1)."""
    if j not in THETA_CHARS:
        raise ValueError("theta index must be 2, 3 or 4")
    return theta_char(*THETA_CHARS[j], V_ZERO, order)[1]


THETA_BIG_SPECS = {
    2: EtaQuotientSpec(((16, 2), (8, -1))),
    3: EtaQuotientSpec(((8, 5), (4, -2), (16, -2))),
    4: EtaQuotientSpec(((4, 2), (8, -1))),
}


@order_memo
def theta_big(j, order):
    """Theta_j(tau) for j = 2, 3, 4, via its eta-quotient form."""
    if j not in THETA_BIG_SPECS:
        raise ValueError("theta index must be 2, 3 or 4")
    return eta_quotient(THETA_BIG_SPECS[j], order)


def theta_big_direct(j, order):
    """Theta_j(tau) from the defining sum; cross-check for theta_big."""
    prec = LATTICE_DEN * order
    pairs = []
    if j == 2:
        n = 0
        while 24 * (2 * n + 1) ** 2 < prec:
            pairs.append((24 * (2 * n + 1) ** 2, 1))
            n += 1
    elif j in (3, 4):
        pairs.append((0, 1))
        n = 1
        while 96 * n * n < prec:
            c = 2 if (j == 3 or n % 2 == 0) else -2
            pairs.append((96 * n * n, c))
            n += 1
    else:
        raise ValueError("theta index must be 2, 3 or 4")
    return Series.from_pairs(pairs, prec=prec)


def eisenstein_e2(order):
    """E2(tau) = 1 - 24 * sum sigma_1(n) q^n, sigma_1 from one divisor sieve."""
    sigma = [0] * order
    for d in range(1, order):
        for n in range(d, order, d):
            sigma[n] += d
    pairs = [(0, 1)] + [(LATTICE_DEN * n, -24 * sigma[n]) for n in range(1, order)]
    return Series.from_pairs(pairs, prec=LATTICE_DEN * order)


def e_star(order):
    """The weight-2 combination 16*Theta2^4 + Theta3^4 (this is E*(4tau))."""
    t2 = theta_big(2, q_order(LATTICE_DEN * order - 72))  # Theta2^4 has val 96
    return Series.combine([(16, t2.pow_int(4)), (1, theta_big(3, order).pow_int(4))])


@order_memo
def z0_hat(order):
    """The weakly holomorphic function E*(4tau) / (Theta2*Theta3)^2.

    Leading term is exactly q^(-2); the greedy polynomial reduction in
    the invariant layer depends on that, so it is checked here.
    """
    prec = LATTICE_DEN * order
    # val Z0hat = -48, val Theta2 = 24, val Theta3 = val E* = 0
    t2 = theta_big(2, q_order(prec + 48 + 24))
    t3 = theta_big(3, q_order(prec + 48))
    z0 = e_star(q_order(prec + 48)) / t2 / t2 / t3 / t3
    head = z0.coefficient(-2 * LATTICE_DEN)
    if z0.val() != -2 * LATTICE_DEN or head != 1:
        raise QSeriesError(f"Z0hat must start with exactly q^-2, but its valuation is "
                           f"{z0.val()} lattice units and its q^-2 coefficient {head}")
    return z0


# ----------------------------------------------------------------------
# named eta quotients of the mock layer's modular companions

SPEC_A = EtaQuotientSpec(((4, 8), (8, -7)))  # eta(4t)^8 / eta(8t)^7
SPEC_B = EtaQuotientSpec(((8, 5), (16, -4)))  # eta(8t)^5 / eta(16t)^4


def modular_a(order):
    return eta_quotient(SPEC_A, order)


def modular_b(order):
    return eta_quotient(SPEC_B, order)


NAMED_FORMS = {
    "eta": lambda order: eta(1, order),
    "eta3": eta_cube,
    "theta2": lambda order: theta_nullwert(2, order),
    "theta3": lambda order: theta_nullwert(3, order),
    "theta4": lambda order: theta_nullwert(4, order),
    "Theta2": lambda order: theta_big(2, order),
    "Theta3": lambda order: theta_big(3, order),
    "Theta4": lambda order: theta_big(4, order),
    "E2": eisenstein_e2,
    "Estar": e_star,
    "Z0hat": z0_hat,
    "A": modular_a,
    "B": modular_b,
    "A38": lambda order: modular_a(order).sieve(3, 8),  # A's terms at q^(3 mod 8)
    "A78": lambda order: modular_a(order).sieve(7, 8),
}
