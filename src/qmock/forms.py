"""Classical modular objects: eta quotients, theta functions, E2, E*, Z0hat.

Two independent construction routes are kept on purpose: the small theta
functions theta2/3/4 come from their defining sums, while the rescaled
Theta2/3/4 come from eta quotients (with the direct sums available for
cross-checking).  Transcription errors in either route are caught by the
identities theta_j(tau) = (2 if j==2 else 1) * Theta_j(tau/8).
"""

from dataclasses import dataclass
from fractions import Fraction

from .qseries import LATTICE_DEN, QSeriesError, Series, order_memo, q_order


class PhaseError(QSeriesError):
    """A theta/mu argument would need phases outside {1, i, -1, -i}."""


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Formal product prod_i eta(k_i * tau)^(e_i)."""

    factors: tuple  # of (multiplier, exponent) pairs

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((int(k), int(e)) for k, e in self.factors))
        for k, _ in self.factors:
            if k < 1:
                raise ValueError(f"eta multiplier must be positive, got {k}")

    def prefactor_exp24(self):
        """Lattice exponent of the leading q-power, sum of k*e."""
        return sum(k * e for k, e in self.factors)


@dataclass(frozen=True)
class HalfPeriodPoint:
    """The argument v = r + s*tau with r, s in (1/2)Z."""

    r: Fraction
    s: Fraction

    def __post_init__(self):
        r = Fraction(self.r)
        s = Fraction(self.s)
        if r.denominator > 2:
            raise PhaseError(f"r = {r} has denominator > 2; phases leave {{1,i,-1,-i}}")
        if s.denominator > 2:
            raise PhaseError(f"s = {s} has denominator > 2; exponents leave the lattice")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

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


def _eta_lattice(k, prec):
    """eta(k*tau) certified below ``prec`` lattice units.

    Pentagonal number expansion: prod (1-q^n) = sum_j (-1)^j q^(j(3j-1)/2),
    so eta(k*tau) has lattice exponents k*(1 + 12*j*(3j-1)).
    """
    pairs = []
    j = 0
    while True:
        hit = False
        for jj in ((j, -j) if j else (0,)):
            e = k * (1 + 12 * jj * (3 * jj - 1))
            if e < prec:
                pairs.append((e, 1 if jj % 2 == 0 else -1))
                hit = True
        if j and not hit:
            break
        j += 1
    return Series.from_pairs(pairs, prec=prec)


@order_memo
def eta(k, order):
    """q-expansion of eta(k*tau) to the given order in q-units; order 0
    certifies the empty prefix."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _eta_lattice(k, LATTICE_DEN * order)


def eta_quotient(spec, order):
    """Exact expansion of an eta quotient to ``order`` q-units."""
    prec_target = LATTICE_DEN * order
    rel = prec_target - spec.prefactor_exp24()
    # eta(k*tau) has val k: it needs rel + k, and k + 1 so an inverse sees its lead
    result = Series.one(rel)
    for k, e in spec.factors:
        if e == 0:
            continue
        result = result * _eta_lattice(k, max(rel + k, k + 1)).pow_int(e)
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
    if not isinstance(v, HalfPeriodPoint):
        v = HalfPeriodPoint(*v)
    prec = LATTICE_DEN * order
    turn = v.r2 + b  # 2r + b
    s2 = v.s2

    def exp24(n):
        m = 2 * n + a
        return 3 * m * m + 6 * s2 * m

    def term(n):
        return exp24(n), -1 if n * turn % 2 else 1

    pairs = []
    # the exponent is a parabola in n; scan outward from its vertex
    n0 = (-s2 - a) // 2
    n = n0
    while exp24(n) < prec:
        pairs.append(term(n))
        n += 1
    n = n0 - 1
    while exp24(n) < prec:
        pairs.append(term(n))
        n -= 1
    return a * turn % 4, Series.from_pairs(pairs, prec=prec)


def theta_char_val(a, v):
    """Exponent of theta_char(a, b, v)'s first term: a lower bound on its
    valuation, exact for theta_1 (a = b = 1) off the lattice points."""
    return 3 * ((a + v.s2) % 2 - v.s2**2)


@order_memo
def theta_nullwert(j, order):
    """theta_j(0|tau) for j = 2, 3, 4, from the defining sums."""
    prec = LATTICE_DEN * order
    pairs = []
    if j == 2:
        n = 0
        while 3 * (2 * n + 1) ** 2 < prec:
            pairs.append((3 * (2 * n + 1) ** 2, 2))
            n += 1
    elif j in (3, 4):
        pairs.append((0, 1))
        n = 1
        while 12 * n * n < prec:
            c = 2 if (j == 3 or n % 2 == 0) else -2
            pairs.append((12 * n * n, c))
            n += 1
    else:
        raise ValueError("theta index must be 2, 3 or 4")
    return Series.from_pairs(pairs, prec=prec)


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


def _sigma1(n):
    # trial division is plenty at the orders used here
    s = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            s += d
            if d != n // d:
                s += n // d
        d += 1
    return s


@order_memo
def eisenstein_e2(order):
    """E2(tau) = 1 - 24 * sum sigma_1(n) q^n."""
    prec = LATTICE_DEN * order
    pairs = [(0, 1)]
    for n in range(1, order):
        pairs.append((LATTICE_DEN * n, -24 * _sigma1(n)))
    return Series.from_pairs(pairs, prec=prec)


@order_memo
def e_star(order):
    """The weight-2 combination 16*Theta2^4 + Theta3^4 (this is E*(4tau))."""
    t2 = theta_big(2, q_order(LATTICE_DEN * order - 72))  # Theta2^4 has val 96
    return t2.pow_int(4).scale(16) + theta_big(3, order).pow_int(4)


@order_memo
def z0_hat(order):
    """The weakly holomorphic function E*(4tau) / (Theta2*Theta3)^2.

    Leading term is exactly q^(-2); the greedy polynomial reduction in
    the invariant layer depends on that, so it is asserted here.
    """
    prec = LATTICE_DEN * order
    # val Z0hat = -48, val Theta2 = 24, val Theta3 = val E* = 0
    t2 = theta_big(2, q_order(prec + 48 + 24))
    t3 = theta_big(3, q_order(prec + 48))
    z0 = e_star(q_order(prec + 48)) * (t2 * t3).pow_int(2).invert()
    assert z0.val() == -2 * LATTICE_DEN and z0.coefficient(-2 * LATTICE_DEN) == 1
    return z0


# ----------------------------------------------------------------------
# named eta quotients of the mock layer's modular companions

SPEC_A = EtaQuotientSpec(((4, 8), (8, -7)))  # eta(4t)^8 / eta(8t)^7
SPEC_B = EtaQuotientSpec(((8, 5), (16, -4)))  # eta(8t)^5 / eta(16t)^4


@order_memo
def modular_a(order):
    return eta_quotient(SPEC_A, order)


@order_memo
def modular_b(order):
    return eta_quotient(SPEC_B, order)


def modular_a_sieved(residue, order):
    """The part of modular_a supported on exponents = residue mod 8."""
    return modular_a(order).sieve(residue, 8)


NAMED_FORMS = {
    "eta": lambda order: eta(1, order),
    "eta3": lambda order: eta(1, q_order(24 * order - 2)).pow_int(3).truncate(24 * order),
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
    "A38": lambda order: modular_a_sieved(3, order),
    "A78": lambda order: modular_a_sieved(7, order),
}
