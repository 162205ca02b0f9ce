"""The constant-term functional and the Donaldson invariants of CP^2.

Two independent evaluation routes are first-class:

* route A works in the tau variable: the functional D_{m,2n}[M+] is the
  k-sum of multinomial-weighted constant terms of
  theta4^9 (theta2^4+theta3^4)^(m+n-k) (theta2 theta3)^(-(2m+2n+3)) * E^k[M+];

* route B works in the 8tau variable: the same numbers come from the
  closed product  T * Z0^(m+n-k) * Ehat^k[H(8tau)]  with
  T = Theta4^9/(Theta2 Theta3 eta(8tau)^3), summed against binomial
  weights and the scalar 2^(2m+3n+4) 3^(n+1) m! n!.  (T equals
  -1/2 * q d/dq Z0hat; the two routes balance with T as the factor.)

Any disagreement between the routes is a hard RouteMismatch error: this
cross-check is the module's main self-validation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .qseries import (
    LATTICE_DEN,
    GaussRat,
    InsufficientPrecision,
    QSeriesError,
    Series,
)
from .forms import eta, theta_big, theta_nullwert, z0_hat
from .mock import MockSeries, h_series, mock_from_coefficients, q_plus, q_plus_rescaled
from .brackets import bracket_hat, cohen_bracket

ROUTE_QPLUS = "QplusTau8"
ROUTE_H12 = "HOver12"
ROUTE_FINAL = "FinalFormula"

#: lattice-unit safety margin added on top of every computed requirement
PREC_MARGIN = 8


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
        z0 = z0_hat(order + 2 * self.degree() + 2)
        total = Series.monomial(0, self.coefficients[0], prec=LATTICE_DEN * order)
        for d in range(1, len(self.coefficients)):
            c = self.coefficients[d]
            if c:
                total = total + z0.pow_int(d).scale(c)
        return total.truncate(LATTICE_DEN * order)


def required_mock_prec(m, n):
    """Lattice precision of M+ needed for the (m, n) functional.

    The theta-quotient factor has valuation -3*(2m+2n+3) lattice units
    (each theta2 in the denominator carries q^(1/8)), and the bracket
    preserves the mock's valuation, so the product certifies the
    constant term exactly when M+ is known strictly beyond that depth.
    """
    return 3 * (2 * m + 2 * n + 3) + 1


def mock_order_for(m, n):
    """q-units order that builds a mock comfortably above the requirement."""
    return (required_mock_prec(m, n) + PREC_MARGIN) // LATTICE_DEN + 1


def _theta_factor(m, n, k, order):
    """theta4^9 (theta2^4+theta3^4)^(m+n-k) / (theta2 theta3)^(2m+2n+3)."""
    t2 = theta_nullwert(2, order)
    t3 = theta_nullwert(3, order)
    t4 = theta_nullwert(4, order)
    s = t2.pow_int(4) + t3.pow_int(4)
    out = t4.pow_int(9) * (t2 * t3).pow_int(-(2 * m + 2 * n + 3))
    if m + n - k:
        out = out * s.pow_int(m + n - k)
    return out


def u_plane_coefficient(mplus, m, n):
    """The constant-term functional D_{m,2n} applied to a mock M+.

    The precision requirement is computed from the pole budget before
    any series work; a mock that is too short raises
    InsufficientPrecision carrying the exact lattice precision needed.
    """
    series = mplus.series if isinstance(mplus, MockSeries) else mplus
    need = required_mock_prec(m, n)
    if series.prec < need:
        raise InsufficientPrecision(
            f"functional ({m},{n}) needs mock precision {need} lattice units, "
            f"got {series.prec}",
            needed=need,
        )
    a = 2 * m + 2 * n + 3
    theta_order = (3 * a + 15 + PREC_MARGIN) // LATTICE_DEN + 2
    total = GaussRat(0)
    for k in range(n + 1):
        scalar = (
            Fraction((-1) ** (k + 1))
            / (Fraction(2) ** (n - 1) * Fraction(3) ** n)
            * Fraction(math.factorial(2 * n), math.factorial(n - k) * math.factorial(k))
        )
        factor = _theta_factor(m, n, k, theta_order)
        term = factor * cohen_bracket(series, k)
        total = total + term.constant_term() * scalar
    if total.im:
        raise QSeriesError(f"functional value has imaginary part {total.im}")
    return total.re


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


def kernel_check(m, n):
    """D_{m,2n} on Q+(tau/8) - H(tau)/12; zero for every m, n."""
    order = mock_order_for(m, n)
    h12 = h_series(order).series.scale(Fraction(1, 12))
    return u_plane_coefficient(q_plus_rescaled(order).series - h12, m, n)


def theta_quotient_factor(order):
    """Theta4^9 / (Theta2 Theta3 eta(8tau)^3), the 8tau-variable factor
    that converts the theta prefactor into Z0hat powers.  It equals
    -1/2 * q d/dq Z0hat exactly."""
    pad = order + PREC_MARGIN
    t4 = theta_big(4, pad)
    t2 = theta_big(2, pad)
    t3 = theta_big(3, pad)
    eta83 = eta(8, pad).pow_int(3)
    out = t4.pow_int(9) * (t2 * t3 * eta83).invert()
    return out.truncate(LATTICE_DEN * order)


def phi_route_a(m, n):
    """Phi_{m,2n} as the functional on H/12 (equal to that on Q+(tau/8))."""
    h12 = h_series(mock_order_for(m, n)).series.scale(Fraction(1, 12))
    return u_plane_coefficient(h12, m, n)


def phi_route_b(m, n):
    """Phi_{m,2n} from the closed 8tau-variable product formula."""
    # pole budget: T has q^(-2), Z0^j has q^(-2j), Ehat^k has q^(-2k-2)
    depth = 48 * (m + n) + 96 + 1
    base_order = depth // LATTICE_DEN + PREC_MARGIN
    z0 = z0_hat(base_order + 2 * (m + n) + 2)
    tq = theta_quotient_factor(base_order + 2 * (m + n) + 2)
    # the bracket-hat loses 48k+24 lattice units plus the operand margin
    h8_prec = LATTICE_DEN * base_order + 48 * (n + 2) + 48
    h_order = h8_prec // (8 * LATTICE_DEN) + 1
    h8 = h_series(h_order).series.rescale_exponents(8, 1)
    total = Fraction(0)
    for k in range(n + 1):
        ehat = bracket_hat(h8, k)
        term = tq * ehat
        if m + n - k:
            term = term * z0.pow_int(m + n - k)
        ct = term.constant_term()
        if ct.im:
            raise QSeriesError(f"route B constant term has imaginary part {ct.im}")
        total += Fraction((-1) ** k * math.comb(n, k)) * ct.re
    scalar = -Fraction(
        math.factorial(2 * n),
        math.factorial(n) * 2 ** (2 * m + 3 * n + 4) * 3 ** (n + 1),
    )
    return scalar * total


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
    need = prec + 48 * (k + 2) + 48
    qp = q_plus(need // LATTICE_DEN + 1).series
    h_ord = need // (8 * LATTICE_DEN) + 1
    h8 = h_series(h_ord).series.rescale_exponents(8, 1)
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
    z0 = z0_hat(f.prec // LATTICE_DEN + 2 * max_degree + 4)
    coeffs = [Fraction(0)] * (pole_degree + 1)
    g = f
    while True:
        v = g.val()
        if v is None:
            break
        if v < 0:
            d = (-v) // (2 * LATTICE_DEN)
            c = g.coefficient(v)
            if c.im:
                raise NotPolynomialInZ0(f"non-real leading coefficient {c}")
            coeffs[d] += c.re
            g = (g - z0.pow_int(d).scale(c)).truncate(g.prec)
        else:
            c0 = g.constant_term()
            if c0.im:
                raise NotPolynomialInZ0(f"non-real constant term {c0}")
            coeffs[0] += c0.re
            g = (g - Series.monomial(0, c0, prec=g.prec)).truncate(g.prec)
            if not g.is_zero():
                raise NotPolynomialInZ0(
                    f"nonzero tail starting at q^{Fraction(g.val(), LATTICE_DEN)}"
                )
            break
    return Z0Polynomial(tuple(coeffs))
