"""The constant-term functional and the Donaldson invariants of CP^2.

Two independent evaluation routes are first-class.  In both, term k of
Phi_{m,2n} is a constant term whose series depends only on the degree
t = m+n and on k; only the scalar weights depend on (m, n):

* route A works in the tau variable on a mock M+ (a plain Series):
  c^A_{t,k} is the constant term of
  theta4^9 (theta2^4+theta3^4)^(t-k) (theta2 theta3)^(-(2t+3)) * E^k[M+],
  and the functional D_{m,2n}[M+] = -2 (2n)!/(n! 6^n) sum_k (-1)^k C(n,k) c^A_{t,k};

* route B works in the 8tau variable: c^B_{t,k} is the constant term of
  the paper's product  T * Z0^(t-k) * Ehat^k[H(8tau)]  with
  T = Theta4^9/(Theta2 Theta3 eta(8tau)^3), and
  Phi_{m,2n} = -(2n)!/(n! 2^(2m+3n+4) 3^(n+1)) sum_k (-1)^k C(n,k) c^B_{t,k}.
  Ehat^k carries eta(8tau)^3 (Theta2 Theta3)^(-2k-2), so the two eta(8tau)^3
  cancel: T Ehat^k[H(8tau)] = Theta4^9 (Theta2 Theta3)^(-2k-3) E^k[H](8tau).

Each term is a constant-term pairing CT[a * b] = sum_e a_e b_(-e) of a
power family and a rung family that do not depend on t:

* route A: X^j and W_k E^k[M+], X = (theta2^4+theta3^4)/(theta2 theta3)^2
  and W_k = theta4^9 (theta2 theta3)^(-3-2k), so c^A_{t,k} =
  CT[X^(t-k) * W_k E^k[M+]].  One mock-free ``theta_family`` (X^j, W_j)
  serves every mock: H, Q+(tau/8) and the column probes;
* route B: Z0hat^j and T Ehat^k[H(8tau)], built as route A's weights on
  Theta_j (``_weights``) times E^k[H](8tau), with no T, eta(8tau) or hat
  ladder (T serves ``verify``'s derivative checks, the hat ladder H_k).

Each power family (X^j, W_j, Z0hat^j) is one ``qseries.chain``.  One
loop, ``_constant_terms``, pairs the families and stores the alternating sums
b_{t,n} = sum_(k<=n) (-1)^k C(n,k) c_{t,k}, n = 0..t, as the vector b_t.
``ROUTE_TABLE`` names every route once: route A on H/12 (``ROUTE_H12``)
and on Q+(tau/8) (``ROUTE_QPLUS``), whose difference is ``kernel_check``,
and route B (``ROUTE_FINAL``), each with its families and its weight.
The functional is linear in the mock, so ``ROUTE_H12`` pairs H itself
and its weight carries the 1/12.
``route_vectors`` keeps one store per route; the stores and the theta
family are monotone in degree (``degree_memo``), serve a smaller degree
as a prefix and are replaced only by a deeper build.  So is ``h_ladder``,
keyed by order: the one bracket ladder on H, whose rungs route A pairs as
they stand and route B rescales to 8tau under its weights; both routes
ask for H at ``mock_order_for(D, 0)``, so ``generating_function`` builds
one ladder.  So is the Z0hat mechanism's ``h_k_family``, keyed by order:
H_0..H_K from one ``bracket_hat_ladder`` on the ladder of
Q+(tau/8) - H/12, so that H_k of a smaller k is served from the deepest K
asked.  Every memoised family is a tuple.
``z0_reduce`` writes H_k as a polynomial in Z0hat by one descending sweep
over ``_z0_powers``, the chain Z0hat^0..Z0hat^D and the one place that
sets Z0hat's working order; ``Z0Polynomial.evaluate`` and route B read the
same chain, which ``degree_memo`` keeps (keyed by prec, a tuple, never
changed in place), so a reduction and its evaluation build it once.
Every Phi_{m,2n} of degree t is a nonzero scalar times the one entry
b_{t,n}.  Any disagreement between the routes is a hard RouteMismatch
error: this cross-check is the module's main self-validation.

Working orders follow the rules in ``qseries``, with no safety margin.
Route A's term of degree t has valuation val(M+) - 3(2t+3); X and W_k
keep the thetas' prec - val, so the family of depth D, from thetas built
to 6D + 16 lattice units, certifies degree D on H (val -3, built to
``required_mock_prec(D, 0)``); a deeper pole takes a deeper family.
Route B's rung k has valuation -48k - 96, so Z0hat^j, paired with rungs
to k = D - j, is asked below 48(D - j) + 97 (``_z0_powers(97, D)``); with
R = 48(D+2) + 1 the weights read Theta2 to R + 24, Theta3 and Theta4 to R,
and H(8tau), needed to R - 24 = 8(6D + 9) + 1, is H at route A's 6D + 10.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .qseries import (
    LATTICE_DEN,
    InsufficientPrecision,
    QSeriesError,
    Series,
    chain,
    degree_memo,
    order_memo,
    q_order,
    signed_sum,
)
from .forms import eta, theta_big, theta_nullwert, z0_hat
from .mock import h_series, mock_from_coefficients, q_plus, q_plus_rescaled
from .brackets import bracket_hat_ladder, bracket_ladder

ROUTE_QPLUS = "QplusTau8"
ROUTE_H12 = "HOver12"
ROUTE_FINAL = "FinalFormula"


class RouteMismatch(QSeriesError):
    """The two evaluation routes disagreed; an implementation bug."""


class NotPolynomialInZ0(QSeriesError):
    """Greedy reduction left a nonzero tail."""


class OddExponent(QSeriesError):
    """Input to the Z0hat reduction lies outside C((q^2))."""


class InvariantRecord(namedtuple("InvariantRecord", "m n value route")):
    """One u-plane / Donaldson number with its provenance route."""

    __slots__ = ()


class Z0Polynomial(namedtuple("Z0Polynomial", "coefficients")):
    """sum_i coefficients[i] * Z0hat^i."""

    __slots__ = ()

    def degree(self):
        d = len(self.coefficients) - 1
        while d > 0 and not self.coefficients[d]:
            d -= 1
        return d

    def evaluate(self, order):
        """Re-expand the polynomial as a Series to ``order`` q-units, one
        combination over the common denominator of the coefficients."""
        prec = LATTICE_DEN * order
        # Z0hat^0 as the one to prec certifies the sum below prec
        powers = (Series.one(prec), *_z0_powers(prec, self.degree())[1:])
        coeffs = [Fraction(c) for c in self.coefficients[: len(powers)]]
        den = math.lcm(*(c.denominator for c in coeffs))
        return Series.combine(
            [(c.numerator * (den // c.denominator), p) for c, p in zip(coeffs, powers)], den)


def required_mock_prec(m, n):
    """Lattice precision of M+ needed for the (m, n) functional.

    The theta-quotient factor has valuation -3*(2m+2n+3) lattice units
    (each theta2 in the denominator carries q^(1/8)), and the bracket
    preserves the mock's valuation, so the product certifies the
    constant term exactly when M+ is known strictly beyond that depth.
    """
    return 3 * (2 * m + 2 * n + 3) + 1


def _check_pair(m, n):
    if m < 0 or n < 0:
        raise ValueError(f"({m},{n}): m and n must be nonnegative")


def mock_order_for(m, n):
    """q-units order that builds a mock certified to the requirement."""
    return q_order(required_mock_prec(m, n))


def _constant_terms(powers, rungs, t):
    """The sums b_n = sum_(k<=n) (-1)^k C(n,k) c_k of c_k = CT[powers[t-k] * rung_k]
    over the rungs n, k = 0, 1, ... (at most t + 1).  Each c_k is read by the
    pairing, no product formed; over one denominator, the integer row is
    replaced by its neighbour differences row[k] - row[k+1], and b_n is the
    head of row n.  b_n reads c_0..c_n only, so fewer rungs give a prefix."""
    terms = [powers[t - k].pairing(rung) for k, rung in zip(range(t + 1), rungs)]
    den = math.lcm(*(c.denominator for c in terms))
    row = [c.numerator * (den // c.denominator) for c in terms]
    sums = []
    while row:
        sums.append(Fraction(row[0], den))
        row = [a - b for a, b in zip(row, row[1:])]
    return tuple(sums)


def _weights(t2, t3, t4, degree):
    """The weights t4^9 (t2 t3)^(-3-2k), k = 0..degree, and their step
    (t2 t3)^(-2): route A's W_k on theta_j, route B's on Theta_j."""
    p_inv = (t2 * t3).invert()
    step = p_inv * p_inv
    return chain(t4.pow_int(9) * p_inv * step, step, degree), step


@degree_memo
def theta_family(degree):
    """Route A's mock-free family for every degree <= ``degree``: the pairs
    (X^j, W_j), j = 0..degree, from thetas built to 6 degree + 16 lattice
    units (X and W_j as in the module docstring)."""
    t2, t3, t4 = (theta_nullwert(j, q_order(6 * degree + 16)) for j in (2, 3, 4))
    weights, step = _weights(t2, t3, t4, degree)
    x = (t2.pow_int(4) + t3.pow_int(4)) * step
    return tuple(zip(chain(x.pow_int(0), x, degree), weights))


def basis_a(ladder, degree):
    """Route A's families on a mock for every degree <= ``degree``, from
    the mock's bracket ``ladder`` E^0[mock], ..., E^K[mock] (a sequence;
    rung 0 is the mock): the powers X^j and the rungs W_k E^k[mock],
    k = 0..K, so that c_{t,k} = CT[X^(t-k) * W_k E^k[mock]].  Theta2, of
    val 3, is needed to 1 - val(mock) + 3(2 degree + 3) + 3 lattice units;
    the family taken is the shallowest, at least degree and K deep, whose
    order 6D + 16 reaches that."""
    need = 1 - ladder[0].min_exp + 3 * (2 * degree + 3) + 3
    family = theta_family(max(degree, len(ladder) - 1, -((16 - need) // 6)))
    rungs = [w * e for (_, w), e in zip(family, ladder)]
    return [x for x, _ in family], rungs


def weigh_a(entry, m, n):
    """D_{m,2n} from ``entry``, entry n of a route A vector of degree m + n
    (the weight does not depend on m)."""
    scalar = -Fraction(2 * math.factorial(2 * n), math.factorial(n) * 6**n)
    return scalar * entry


def u_plane_coefficient(mplus, m, n):
    """The constant-term functional D_{m,2n} applied to a mock M+: the
    weight times entry n of route A's alternating sums over
    c_{m+n,k}[M+] = CT[theta4^9 S^(m+n-k) (theta2 theta3)^(-(2m+2n+3)) E^k[M+]],
    k = 0..n, S = theta2^4 + theta3^4.

    The precision requirement is computed from the pole budget before
    any series work; a mock that is too short raises
    InsufficientPrecision carrying the exact lattice precision needed.
    """
    _check_pair(m, n)
    need = required_mock_prec(m, n)
    if mplus.prec < need:
        raise InsufficientPrecision(
            f"functional ({m},{n}) needs mock precision {need} lattice units, "
            f"got {mplus.prec}",
            needed=need,
        )
    t = m + n
    return weigh_a(_constant_terms(*basis_a(bracket_ladder(mplus, n), t), t)[n], m, n)


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


@order_memo
def theta_quotient_factor(order):
    """T = Theta4^9 / (Theta2 Theta3 eta(8tau)^3), the paper's route B factor
    and the right side of ``verify``'s z0-derivative checks: it equals
    -1/2 * q d/dq Z0hat exactly.  Route B builds no T: its eta(8tau)^3 cancels Ehat^k's."""
    prec = LATTICE_DEN * order
    # val T = -48; Theta4, Theta2, Theta3 and eta(8tau) have val 0, 24, 0, 8
    t4 = theta_big(4, q_order(prec + 48))
    t2 = theta_big(2, q_order(prec + 48 + 24))
    t3 = theta_big(3, q_order(prec + 48))
    eta83 = eta(8, q_order(prec + 48 + 8)).pow_int(3)
    return t4.pow_int(9) / t2 / t3 / eta83


@degree_memo
def h_ladder(order, k_max):
    """E^0[H], ..., E^k_max[H] on H built to ``order`` q-units: the one
    bracket ladder on H.  Route A on H/12 pairs its rungs as they stand
    (``ROUTE_H12``'s weight carries the 1/12), and route B reads them under
    its 8tau weights; both ask for it at ``mock_order_for(D, 0)``."""
    return bracket_ladder(h_series(order), k_max)


def basis_b(degree):
    """Route B's families for every degree <= ``degree``: Z0hat^j and
    Theta4^9 (Theta2 Theta3)^(-2k-3) E^k[H](8tau) = T Ehat^k[H(8tau)]."""
    rel = 48 * (degree + 2) + 1  # Z0^j * rung k has val -48(j+k+2)
    t2 = theta_big(2, q_order(rel + 24))  # val Theta2 = 24, val Theta3 = val Theta4 = 0
    weights, _ = _weights(t2, theta_big(3, q_order(rel)), theta_big(4, q_order(rel)), degree)
    rungs = zip(weights, h_ladder(mock_order_for(degree, 0), degree))
    return _z0_powers(97, degree), [w * e.rescale_exponents(8, 1) for w, e in rungs]


def weigh_b(entry, m, n):
    """Phi_{m,2n} from ``entry``, entry n of a route B vector of degree m + n."""
    scalar = -Fraction(
        math.factorial(2 * n),
        math.factorial(n) * 2 ** (2 * m + 3 * n + 4) * 3 ** (n + 1),
    )
    return scalar * entry


#: route label -> (its families for every degree <= D, its weight), looked up
#: at call time; route A reads a mock built to the order degree D needs, and
#: on H/12 pairs H's own ladder, with the 1/12 in its weight
ROUTE_TABLE = {
    ROUTE_H12: (lambda d: basis_a(h_ladder(mock_order_for(d, 0), d), d),
                lambda entry, m, n: weigh_a(entry / 12, m, n)),
    ROUTE_QPLUS: (lambda d: basis_a(bracket_ladder(q_plus_rescaled(mock_order_for(d, 0)), d), d),
                  weigh_a),
    ROUTE_FINAL: (basis_b, weigh_b),
}


@degree_memo
def route_vectors(route, degree):
    """A route's vectors of alternating sums b_0, ..., b_degree, all paired
    from the one pair of families that ``ROUTE_TABLE`` builds for ``degree``."""
    powers, rungs = ROUTE_TABLE[route][0](degree)
    return tuple(_constant_terms(powers, rungs, t) for t in range(degree + 1))


def donaldson_phi(m, n, route):
    """Phi_{m,2n} by the named route."""
    if route not in ROUTE_TABLE:
        raise ValueError(f"unknown route {route!r}")
    _check_pair(m, n)
    return ROUTE_TABLE[route][1](route_vectors(route, m + n)[m + n][n], m, n)


def phi_route_a(m, n):
    """Phi_{m,2n} as the functional on H/12 (equal to that on Q+(tau/8))."""
    return donaldson_phi(m, n, ROUTE_H12)


def phi_route_b(m, n):
    """Phi_{m,2n} from the closed 8tau-variable product formula."""
    return donaldson_phi(m, n, ROUTE_FINAL)


def kernel_check(m, n):
    """D_{m,2n} on Q+(tau/8) - H(tau)/12 by linearity: one weight on the
    difference of route A's entries on Q+(tau/8) and on H / 12; zero for
    every m, n."""
    _check_pair(m, n)
    qplus, h = (route_vectors(route, m + n)[m + n][n] for route in (ROUTE_QPLUS, ROUTE_H12))
    return weigh_a(qplus - h / 12, m, n)


def generating_function(max_total_degree):
    """All Phi_{m,2n} with m + n <= max_total_degree, both routes.

    Every pair is evaluated by route A (the tau-variable functional on
    H/12) and route B (the 8tau-variable product formula); any
    disagreement raises RouteMismatch.  Records are emitted for the
    even pairs m + n = 0 mod 2 (odd pairs vanish identically and are
    checked to do so).  Returns (records, Z(p,S) string).
    """
    if max_total_degree < 0:
        raise ValueError(f"degree {max_total_degree} must be nonnegative")
    records = []
    for route in (ROUTE_H12, ROUTE_FINAL):  # one store build each, at the deepest degree
        route_vectors(route, max_total_degree)
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
        if c:
            terms.append((c, [("p", rec.m), ("S", 2 * rec.n)]))
    return "Z(p,S) = " + (signed_sum(terms) or "0")


# ----------------------------------------------------------------------
# the Z0hat polynomial mechanism


@degree_memo
def h_k_family(order, k_max):
    """H_0, ..., H_k_max, each certified to ``order`` q-units, from one
    ``bracket_hat_ladder`` on the ladder of one Q+(tau/8) - H(tau)/12 built
    for k_max: rung k certifies 8 times its operand's prec - 48k - 24, so
    rung k_max needs Q+ to prec + 48 k_max + 24 lattice units."""
    prec = LATTICE_DEN * order
    qp8 = q_plus(q_order(prec + 48 * k_max + 24)).rescale_exponents(1, 8)
    diff = Series.combine([(12, qp8), (-1, h_series(q_order(qp8.prec)))], 12)
    return tuple(rung.truncate(prec) for rung in bracket_hat_ladder(bracket_ladder(diff, k_max)))


def h_k_series(k, order):
    """H_k(q) = eta(8tau)^3/(Theta2 Theta3)^(2k+2) * E^k[Q+(tau) - H(8tau)/12]
    to ``order`` q-units: entry k of ``h_k_family``, which serves a smaller k
    from a deeper build.  ``z0_reduce`` checks that it lies in C((q^2))."""
    return h_k_family(order, k)[k]


@degree_memo
def _z0_powers(prec, degree):
    """Z0hat^0, ..., Z0hat^degree, each certified at least below ``prec``:
    Z0hat^d, of valuation -48d, keeps Z0hat's prec - val, so Z0hat^d needs
    Z0hat at prec + 48(d - 1), and the top power sets the build (degree 0
    builds none: Z0hat^0 is 1).  The one Z0hat working order; a tuple:
    ``z0_reduce``, ``Z0Polynomial.evaluate`` and route B read the one chain."""
    z0 = z0_hat(q_order(prec + 48 * (degree - 1))) if degree else Series.one(prec)
    return chain(z0.pow_int(0), z0, degree)


def z0_reduce(f, max_degree):
    """Write an even, weakly holomorphic series as a polynomial in Z0hat.

    One descending sweep over the principal part: Z0hat^d has leading
    coefficient exactly 1 at q^(-2d), so for d = D, D-1, ..., 1, with D the
    pole degree, the coefficient of q^(-2d) in what is left is c_d, and
    subtracting c_d Z0hat^d clears it without touching lower exponents.
    The powers come from one chain.  After the constant is removed, the
    tail must vanish to the input's precision; anything else raises
    NotPolynomialInZ0.  The constant is read at q^0, so the input must be
    certified above it.
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
    powers = _z0_powers(f.prec, pole_degree)
    coeffs = [Fraction(0)] * (pole_degree + 1)
    g = f
    for d in range(pole_degree, 0, -1):
        coeffs[d] = c = g.coefficient(-2 * LATTICE_DEN * d)
        if c:
            g = Series.combine([(c.denominator, g), (-c.numerator, powers[d])], c.denominator)
    coeffs[0] = c0 = g.constant_term()
    g = g - Series.monomial(0, c0, prec=g.prec)
    if not g.is_zero():
        raise NotPolynomialInZ0(f"nonzero tail starting at q^{Fraction(g.val(), LATTICE_DEN)}")
    return Z0Polynomial(tuple(coeffs))
