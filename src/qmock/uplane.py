"""The constant-term functional and the Donaldson invariants of CP^2.

Two independent evaluation routes are first-class.  In both, term k of
Phi_{m,2n} is a constant term whose series depends only on the degree
t = m+n and on k; only the scalar weights depend on (m, n):

* route A works in the tau variable on a mock M+ (a plain Series):
  c^A_{t,k} is the constant term of
  theta4^9 (theta2^4+theta3^4)^(t-k) (theta2 theta3)^(-(2t+3)) * E^k[M+],
  and the functional D_{m,2n}[M+] = -2 (2n)!/(n! 6^n) sum_k (-1)^k C(n,k) c^A_{t,k};

* route B works in the 8tau variable: c^B_{t,k} is the constant term of
  the closed product  T * Z0^(t-k) * Ehat^k[H(8tau)]  with
  T = Theta4^9/(Theta2 Theta3 eta(8tau)^3), and
  Phi_{m,2n} = -(2n)!/(n! 2^(2m+3n+4) 3^(n+1)) sum_k (-1)^k C(n,k) c^B_{t,k}.
  (T equals -1/2 * q d/dq Z0hat; the two routes balance with T as the factor.)

So each route builds its vector c_t = (c_{t,0}, ..., c_{t,t}) once per
degree (``vector_a`` and ``vector_b`` each cache the degree asked for
last), with the prefactor powers and the brackets climbing one product
per k (``brackets.bracket_ladder``), and every Phi of degree t is a
weighted sum of its first n+1 entries.  The routes' weights differ by
3 * 2^(2t+5), so they agree on every pair of degree t exactly when
c^B_t = 3 * 2^(2t+5) * c^A_t.  The weights are triangular in (n, k) with
a nonzero diagonal, so a vector is zero exactly when the value of every
pair of its degree is zero: checking vectors is no weaker than checking
pairs.  Any disagreement between the routes is a hard RouteMismatch
error: this cross-check is the module's main self-validation.

Working orders follow the rules in ``qseries``, with no safety margin.
Every route B term has valuation -48(t+2) lattice units; with
R = 48(t+2) + 1, T and Z0hat are built to R - 48 and H(8tau) to R - 24
(``bracket_hat`` keeps its operand's prec - val whatever k is).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qseries import (
    LATTICE_DEN,
    InsufficientPrecision,
    QSeriesError,
    Series,
    q_order,
)
from .forms import eta, theta_big, theta_nullwert, z0_hat
from .mock import h_series, mock_from_coefficients, q_plus, q_plus_rescaled
from .brackets import bracket_hat, bracket_hat_ladder, bracket_ladder

ROUTE_QPLUS = "QplusTau8"
ROUTE_H12 = "HOver12"
ROUTE_FINAL = "FinalFormula"


class RouteMismatch(QSeriesError):
    """The two evaluation routes disagreed; an implementation bug."""


class NotPolynomialInZ0(QSeriesError):
    """Greedy reduction left a nonzero tail."""


class OddExponent(QSeriesError):
    """Input to the Z0hat reduction lies outside C((q^2))."""


@dataclass(frozen=True)
class InvariantRecord:
    """One u-plane / Donaldson number with its provenance route."""

    m: int
    n: int
    value: Fraction
    route: str


@dataclass(frozen=True)
class Z0Polynomial:
    """sum_i coefficients[i] * Z0hat^i."""

    coefficients: tuple

    def degree(self):
        d = len(self.coefficients) - 1
        while d > 0 and not self.coefficients[d]:
            d -= 1
        return d

    def evaluate(self, order):
        """Re-expand the polynomial as a Series to ``order`` q-units."""
        prec = LATTICE_DEN * order
        # Z0hat^d, of valuation -48d, needs Z0hat's prec at prec + 48(d - 1)
        z0 = z0_hat(q_order(prec + 48 * (self.degree() - 1)))
        total = Series.monomial(0, self.coefficients[0], prec=prec)
        for d, c in enumerate(self.coefficients[1:], 1):
            if c:
                total = total + z0.pow_int(d).scale(c)
        return total


def required_mock_prec(m, n):
    """Lattice precision of M+ needed for the (m, n) functional.

    The theta-quotient factor has valuation -3*(2m+2n+3) lattice units
    (each theta2 in the denominator carries q^(1/8)), and the bracket
    preserves the mock's valuation, so the product certifies the
    constant term exactly when M+ is known strictly beyond that depth.
    """
    return 3 * (2 * m + 2 * n + 3) + 1


def mock_order_for(m, n):
    """q-units order that builds a mock certified to the requirement."""
    return q_order(required_mock_prec(m, n))


def functional_vector(mplus, t, k_max):
    """Route A's constant terms c_{t,k}[M+], k = 0..k_max, of degree t:
    c_{t,k} = CT[theta4^9 S^(t-k) (theta2 theta3)^(-(2t+3)) E^k[M+]] with
    S = theta2^4 + theta3^4.  M+ must meet ``required_mock_prec``."""
    a = 2 * t + 3
    # the constant term of (theta factor, val -3a) * (bracket, val >= val(M+))
    # needs theta2, of val 3, to 1 - val(M+) + 3a + 3
    v = mplus.val()
    order = q_order(1 - (mplus.prec if v is None else v) + 3 * a + 3)
    t2 = theta_nullwert(2, order)
    t3 = theta_nullwert(3, order)
    s = t2.pow_int(4) + t3.pow_int(4)
    factors = [theta_nullwert(4, order).pow_int(9) * (t2 * t3).pow_int(-a)]
    for _ in range(t):
        factors.append(factors[-1] * s)
    return tuple(
        (factors[t - k] * bracket).constant_term()
        for k, bracket in enumerate(bracket_ladder(mplus, k_max))
    )


def _alternating_sum(vector, n):
    return sum(Fraction((-1) ** k * math.comb(n, k)) * vector[k] for k in range(n + 1))


def weigh_a(vector, n):
    """D_{m,2n} from the first n+1 entries of a route A vector."""
    scalar = -Fraction(2 * math.factorial(2 * n), math.factorial(n) * 6**n)
    return scalar * _alternating_sum(vector, n)


def u_plane_coefficient(mplus, m, n):
    """The constant-term functional D_{m,2n} applied to a mock M+.

    The precision requirement is computed from the pole budget before
    any series work; a mock that is too short raises
    InsufficientPrecision carrying the exact lattice precision needed.
    """
    need = required_mock_prec(m, n)
    if mplus.prec < need:
        raise InsufficientPrecision(
            f"functional ({m},{n}) needs mock precision {need} lattice units, "
            f"got {mplus.prec}",
            needed=need,
        )
    return weigh_a(functional_vector(mplus, m + n, n), n)


def column_extract(m, n, k_max):
    """The functional's exact coefficients on the graded basis
    q^(-1/8 + k/2), k = 0..k_max: D[M+] is the dot product of this
    column with (H_0, ..., H_k_max)."""
    order = mock_order_for(m, n)
    out = []
    for k in range(k_max + 1):
        basis = mock_from_coefficients([0] * k + [1], order)
        out.append(u_plane_coefficient(basis, m, n))
    return out


def _h12(t):
    return h_series(mock_order_for(t, 0)).scale(Fraction(1, 12))


@lru_cache(maxsize=1)
def vector_a(t):
    """Route A's vector of degree t on H/12."""
    return functional_vector(_h12(t), t, t)


def kernel_vector(t):
    """Route A's vector of degree t on Q+(tau/8) - H(tau)/12; all zero."""
    qplus = q_plus_rescaled(mock_order_for(t, 0))
    return functional_vector(qplus - _h12(t), t, t)


def kernel_check(m, n):
    """D_{m,2n} on Q+(tau/8) - H(tau)/12; zero for every m, n."""
    return weigh_a(kernel_vector(m + n), n)


def theta_quotient_factor(order):
    """Theta4^9 / (Theta2 Theta3 eta(8tau)^3), the 8tau-variable factor
    that converts the theta prefactor into Z0hat powers.  It equals
    -1/2 * q d/dq Z0hat exactly."""
    prec = LATTICE_DEN * order
    # val T = -48; Theta4, Theta2, Theta3 and eta(8tau) have val 0, 24, 0, 8
    t4 = theta_big(4, q_order(prec + 48))
    t2 = theta_big(2, q_order(prec + 48 + 24))
    t3 = theta_big(3, q_order(prec + 48))
    eta83 = eta(8, q_order(prec + 48 + 8)).pow_int(3)
    return t4.pow_int(9) * (t2 * t3 * eta83).invert()


@lru_cache(maxsize=1)
def vector_b(t):
    """Route B's constant terms CT[T Z0hat^(t-k) Ehat^k[H(8tau)]], k = 0..t."""
    rel = 48 * (t + 2) + 1  # T * Z0^j * Ehat^k has val -48(t+2)
    z0 = z0_hat(q_order(rel - 48))
    chain = [theta_quotient_factor(q_order(rel - 48))]  # T Z0hat^j, j = 0..t
    for _ in range(t):
        chain.append(chain[-1] * z0)
    h8 = h_series(q_order(Fraction(rel - 24, 8))).rescale_exponents(8, 1)
    return tuple(
        (chain[t - k] * ehat).constant_term()
        for k, ehat in enumerate(bracket_hat_ladder(h8, t))
    )


def weigh_b(vector, m, n):
    """Phi_{m,2n} from the first n+1 entries of a route B vector."""
    scalar = -Fraction(
        math.factorial(2 * n),
        math.factorial(n) * 2 ** (2 * m + 3 * n + 4) * 3 ** (n + 1),
    )
    return scalar * _alternating_sum(vector, n)


def phi_route_a(m, n):
    """Phi_{m,2n} as the functional on H/12 (equal to that on Q+(tau/8))."""
    return weigh_a(vector_a(m + n), n)


def phi_route_b(m, n):
    """Phi_{m,2n} from the closed 8tau-variable product formula."""
    return weigh_b(vector_b(m + n), m, n)


def donaldson_phi(m, n, route):
    """Phi_{m,2n} by the named route."""
    if route == ROUTE_QPLUS:
        return u_plane_coefficient(q_plus_rescaled(mock_order_for(m, n)), m, n)
    if route == ROUTE_H12:
        return phi_route_a(m, n)
    if route == ROUTE_FINAL:
        return phi_route_b(m, n)
    raise ValueError(f"unknown route {route!r}")


def generating_function(max_total_degree):
    """All Phi_{m,2n} with m + n <= max_total_degree, both routes.

    Every pair is evaluated by route A (the tau-variable functional on
    H/12) and route B (the 8tau-variable product formula); any
    disagreement raises RouteMismatch.  Records are emitted for the
    even pairs m + n = 0 mod 2 (odd pairs vanish identically and are
    checked to do so).  Returns (records, Z(p,S) string).
    """
    records = []
    for total in range(max_total_degree + 1):
        for m in range(total + 1):
            n = total - m
            va = phi_route_a(m, n)
            vb = phi_route_b(m, n)
            if va != vb:
                raise RouteMismatch(
                    f"({m},{n}): route A gives {va}, route B gives {vb}"
                )
            if total % 2 == 0:
                records.append(InvariantRecord(m, n, va, ROUTE_FINAL))
            elif va:
                raise RouteMismatch(f"({m},{n}): odd pair must vanish, got {va}")
    return records, format_z(records)


def format_z(records):
    """Z(p,S) = sum Phi_{m,2n} p^m/m! S^(2n)/(2n)! as a plain string."""
    terms = []
    for rec in records:
        c = rec.value / (math.factorial(rec.m) * math.factorial(2 * rec.n))
        if not c:
            continue
        mono = []
        if rec.m == 1:
            mono.append("p")
        elif rec.m > 1:
            mono.append(f"p^{rec.m}")
        if rec.n:
            mono.append(f"S^{2 * rec.n}")
        body = "*".join(mono)
        mag = abs(c)
        cs = "" if mag == 1 and body else str(mag)
        piece = cs + ("*" if cs and body else "") + body
        terms.append((c < 0, piece if piece else "1"))
    if not terms:
        return "Z(p,S) = 0"
    out = "Z(p,S) = "
    for i, (neg, piece) in enumerate(terms):
        if i == 0:
            out += ("-" if neg else "") + piece
        else:
            out += (" - " if neg else " + ") + piece
    return out


def records_to_csv(records):
    lines = ["m,n,phi_num,phi_den,route"]
    for r in records:
        lines.append(f"{r.m},{r.n},{r.value.numerator},{r.value.denominator},{r.route}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the Z0hat polynomial mechanism


def h_k_series(k, order):
    """H_k(q) = eta(8tau)^3/(Theta2 Theta3)^(2k+2) * E^k[Q+(tau) - H(8tau)/12],
    certified to ``order`` q-units; always lands in C((q^2))."""
    prec = LATTICE_DEN * order
    need = prec + 48 * k + 24  # bracket_hat certifies its operand's prec - 48k - 24
    qp = q_plus(q_order(need))
    h8 = h_series(q_order(Fraction(need, 8))).rescale_exponents(8, 1)
    diff = qp - h8.scale(Fraction(1, 12))
    out = bracket_hat(diff, k).truncate(prec)
    bad = [e for e in out.support() if e % (2 * LATTICE_DEN)]
    if bad:
        raise QSeriesError(
            f"H_{k} has an odd-exponent term at lattice {bad[0]}; "
            "the kernel mechanism would be broken"
        )
    return out


def z0_reduce(f, max_degree):
    """Write an even, weakly holomorphic series as a polynomial in Z0hat.

    Greedy principal-part elimination: Z0hat^d has leading coefficient
    exactly 1 at q^(-2d), so subtracting c_d Z0hat^d strictly raises the
    valuation.  After the constant is removed, the tail must vanish to
    the input's precision; anything else raises NotPolynomialInZ0.  The
    constant is read at q^0, so the input must be certified above it.
    """
    if f.prec <= 0:
        raise InsufficientPrecision(
            f"z0_reduce reads the constant term at q^0, but the input is only "
            f"certified below q^({Fraction(f.prec, LATTICE_DEN)})",
            needed=1,
        )
    for e in f.support():
        if e % (2 * LATTICE_DEN):
            raise OddExponent(
                f"exponent q^{Fraction(e, LATTICE_DEN)} is not even; input must lie in C((q^2))"
            )
    v = f.val()
    pole_degree = 0 if v is None or v >= 0 else (-v) // (2 * LATTICE_DEN)
    if pole_degree > max_degree:
        raise NotPolynomialInZ0(
            f"pole order {2 * pole_degree} exceeds 2*max_degree = {2 * max_degree}"
        )
    # Z0hat^d for d <= pole_degree must reach the input's prec
    z0 = z0_hat(q_order(f.prec + 48 * (pole_degree - 1)))
    coeffs = [Fraction(0)] * (pole_degree + 1)
    g = f
    while True:
        v = g.val()
        if v is None:
            break
        if v < 0:
            d = (-v) // (2 * LATTICE_DEN)
            c = g.coefficient(v)
            coeffs[d] += c
            g = (g - z0.pow_int(d).scale(c)).truncate(g.prec)
        else:
            c0 = g.constant_term()
            coeffs[0] += c0
            g = (g - Series.monomial(0, c0, prec=g.prec)).truncate(g.prec)
            if not g.is_zero():
                raise NotPolynomialInZ0(
                    f"nonzero tail starting at q^{Fraction(g.val(), LATTICE_DEN)}"
                )
            break
    return Z0Polynomial(tuple(coeffs))
