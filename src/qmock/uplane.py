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

Each term is a constant-term pairing CT[a * b] = sum_e a_e b_(-e) of a
power family and a rung family that do not depend on t:

* route A: X^j and W_k E^k[M+], X = (theta2^4+theta3^4)/(theta2 theta3)^2
  and W_k = theta4^9 (theta2 theta3)^(-3-2k), so c^A_{t,k} =
  CT[X^(t-k) * W_k E^k[M+]].  One mock-free ``theta_family`` (X^j, W_j)
  serves every mock: H/12, Q+(tau/8), their difference and column probes;
* route B: T Z0hat^j and Ehat^k[H(8tau)], so that
  c^B_{t,k} = CT[T Z0hat^(t-k) * Ehat^k[H(8tau)]].

One loop, ``_constant_terms``, pairs them into the vector
c_t = (c_{t,0}, ..., c_{t,t}).  ``route_vectors`` keeps one store for
route B and one per named route A mock (``ROUTE_A_MOCKS``); the stores
and the theta family are monotone in degree (``degree_memo``), serve a
smaller degree as a prefix and are replaced only by a deeper build.
Every Phi of degree t is a weighted sum of the first n+1 entries of c_t.
The routes' weights differ by 3 * 2^(2t+5), so they agree on every pair
of degree t exactly when c^B_t = 3 * 2^(2t+5) * c^A_t.  The weights are
triangular in (n, k) with a nonzero diagonal, so a vector is zero exactly
when the value of every pair of its degree is zero: checking vectors is
no weaker than checking pairs.  Any disagreement between the routes is a
hard RouteMismatch error: this cross-check is the module's main
self-validation.

Working orders follow the rules in ``qseries``, with no safety margin.
Route A's term of degree t has valuation val(M+) - 3(2t+3); X and W_k
keep the thetas' prec - val, so the family of depth D, from thetas built
to 6D + 16 lattice units, certifies degree D on H/12 (val -3, built to
``required_mock_prec(D, 0)``); a deeper pole takes a deeper family.
Every route B term has valuation -48(t+2) lattice units; with
R = 48(D+2) + 1, T and Z0hat are built to R - 48 and H(8tau) to R - 24
(``bracket_hat`` keeps its operand's prec - val whatever k is).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .qseries import (
    LATTICE_DEN,
    InsufficientPrecision,
    QSeriesError,
    Series,
    degree_memo,
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


def _chain(first, step, n):
    """[first * step^j for j = 0..n], one product per j."""
    out = [first]
    for _ in range(n):
        out.append(out[-1] * step)
    return out


def _constant_terms(powers, rungs, t):
    """The tuple of CT[powers[t-k] * rung_k] over the rungs k = 0, 1, ...
    (at most t + 1 of them), each read by the pairing, no product formed."""
    return tuple(powers[t - k].pairing(rung) for k, rung in zip(range(t + 1), rungs))


@degree_memo
def theta_family(degree):
    """Route A's mock-free family for every degree <= ``degree``: the pairs
    (X^j, W_j), j = 0..degree, from thetas built to 6 degree + 16 lattice
    units (X and W_j as in the module docstring)."""
    order = q_order(6 * degree + 16)
    t2 = theta_nullwert(2, order)
    t3 = theta_nullwert(3, order)
    p_inv = (t2 * t3).invert()
    step = p_inv * p_inv
    x = (t2.pow_int(4) + t3.pow_int(4)) * step
    first = theta_nullwert(4, order).pow_int(9) * p_inv * step
    return tuple(zip(_chain(x.pow_int(0), x, degree), _chain(first, step, degree)))


def basis_a(mock, degree, k_max):
    """Route A's families on ``mock`` for every degree <= ``degree``: the
    powers X^j and the rungs W_k E^k[mock], k = 0..k_max, so that
    c_{t,k} = CT[X^(t-k) * W_k E^k[mock]].  Theta2, of val 3, is needed to
    1 - val(mock) + 3(2 degree + 3) + 3 lattice units; the family taken is
    the deepest (at least degree and k_max) whose order 6D + 16 rounds to
    that q-order, so that requests of one q-order share one family."""
    need = 1 - mock.min_exp + 3 * (2 * degree + 3) + 3
    order = q_order(max(need, 6 * max(degree, k_max) + 16))
    family = theta_family((LATTICE_DEN * order - 16) // 6)
    rungs = [w * e for (_, w), e in zip(family, bracket_ladder(mock, k_max))]
    return [x for x, _ in family], rungs


def functional_vector(mplus, t, k_max):
    """Route A's constant terms c_{t,k}[M+], k = 0..k_max, of degree t:
    c_{t,k} = CT[theta4^9 S^(t-k) (theta2 theta3)^(-(2t+3)) E^k[M+]] with
    S = theta2^4 + theta3^4.  M+ must meet ``required_mock_prec``."""
    return _constant_terms(*basis_a(mplus, t, k_max), t)


def _alternating_sum(vector, n):
    """sum_(k<=n) (-1)^k C(n,k) vector[k], summed as integer numerators
    over one common denominator."""
    den = math.lcm(*(vector[k].denominator for k in range(n + 1)))
    num = sum((-1) ** k * math.comb(n, k) * x.numerator * (den // x.denominator)
              for k, x in zip(range(n + 1), vector))
    return Fraction(num, den)


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


#: route A's named mocks, each certified for every degree <= its argument
ROUTE_A_MOCKS = {
    "A": _h12,
    "Qplus": lambda t: q_plus_rescaled(mock_order_for(t, 0)),
    "kernel": lambda t: q_plus_rescaled(mock_order_for(t, 0)) - _h12(t),
}


def vector_a(t):
    """Route A's vector of degree t on H/12."""
    return route_vectors("A", t)[t]


def vector_qplus(t):
    """Route A's vector of degree t on Q+(tau/8); equal to ``vector_a(t)``."""
    return route_vectors("Qplus", t)[t]


def kernel_vector(t):
    """Route A's vector of degree t on Q+(tau/8) - H(tau)/12; all zero."""
    return route_vectors("kernel", t)[t]


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
    return t4.pow_int(9) / t2 / t3 / eta83


def basis_b(degree):
    """Route B's families for every degree <= ``degree``: T Z0hat^j and
    Ehat^k[H(8tau)], j, k = 0..degree."""
    rel = 48 * (degree + 2) + 1  # T * Z0^j * Ehat^k has val -48(j+k+2)
    z0 = z0_hat(q_order(rel - 48))
    tq = theta_quotient_factor(q_order(rel - 48))
    h8 = h_series(q_order(Fraction(rel - 24, 8))).rescale_exponents(8, 1)
    return _chain(tq, z0, degree), list(bracket_hat_ladder(h8, degree))


def vector_b(t):
    """Route B's constant terms CT[T Z0hat^(t-k) Ehat^k[H(8tau)]], k = 0..t."""
    return route_vectors("B", t)[t]


@degree_memo
def route_vectors(route, degree):
    """A route's vectors c_0, ..., c_degree, all paired from one pair of
    families built for ``degree``: route "B", or route A on one of the
    mocks in ``ROUTE_A_MOCKS``."""
    mock = ROUTE_A_MOCKS.get(route)
    powers, rungs = basis_b(degree) if mock is None else basis_a(mock(degree), degree, degree)
    return tuple(_constant_terms(powers, rungs, t) for t in range(degree + 1))


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
        return weigh_a(vector_qplus(m + n), n)
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
    vector_a(max_total_degree)  # one store build per route, at the deepest degree
    vector_b(max_total_degree)
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
