"""Per-degree constant-term vectors and bracket ladders against the
per-pair loops they replaced.

The reference functions below are the per-(m, n), per-k evaluation
that ``uplane`` and ``brackets`` used before every Phi of one degree came
from one vector per route: each pair rebuilds its own theta factor,
Z0hat power and bracket for every k.  They share only the series
builders with the code under test.  Edge mocks (a pole below H's, the
zero mock, a mock at exactly the required precision and one lattice unit
short of it) check the depth rule of route A's shared theta family.
"""

import math
from fractions import Fraction

import pytest

from qmock import uplane
from qmock.brackets import (
    bracket_coefficients,
    bracket_hat,
    bracket_hat_ladder,
    bracket_ladder,
    cohen_bracket,
)
from qmock.forms import eisenstein_e2, eta, theta_big, theta_nullwert, z0_hat
from qmock.mock import h_series, mock_from_coefficients, q_plus_rescaled
from qmock.qseries import LATTICE_DEN, InsufficientPrecision, Series, q_order
from qmock.uplane import (
    ROUTE_FINAL,
    ROUTE_H12,
    ROUTE_QPLUS,
    _constant_terms,
    basis_a,
    kernel_check,
    mock_order_for,
    phi_route_a,
    phi_route_b,
    required_mock_prec,
    route_vectors,
    theta_quotient_factor,
    u_plane_coefficient,
)
from qmock.verify import PHI_TABLE

MAX_DEGREE = 8
PAIRS = [(m, t - m) for t in range(MAX_DEGREE + 1) for m in range(t + 1)]


# ------------------------------------------------------------ the reference


def reference_cohen_bracket(m_series, k, scale=1):
    if k == 0:
        return m_series
    v = m_series.val()
    rel = 0 if v is None else m_series.prec - v
    e2 = eisenstein_e2(q_order(Fraction(rel, scale)))
    if scale != 1:
        e2 = e2.rescale_exponents(scale, 1)
    result = None
    deriv = m_series
    inv_scale = Fraction(1, scale)
    for j, c in bracket_coefficients(k):
        if j > 0:
            deriv = deriv.q_derive()
        term = deriv.scale(c * inv_scale**j)
        if j < k:
            term = e2.pow_int(k - j) * term
        result = term if result is None else result + term
    return result


def reference_bracket_hat(m8, k):
    v = m8.val()
    rel = 1 if v is None else m8.prec - v
    eta8_cubed = eta(8, q_order(rel + 8)).pow_int(3)
    t23 = theta_big(2, q_order(rel + 24)) * theta_big(3, q_order(rel))
    bracket = reference_cohen_bracket(m8, k, scale=8)
    return eta8_cubed * t23.pow_int(-(2 * k + 2)) * bracket


def reference_theta_factor(m, n, k, order):
    t2 = theta_nullwert(2, order)
    t3 = theta_nullwert(3, order)
    t4 = theta_nullwert(4, order)
    s = t2.pow_int(4) + t3.pow_int(4)
    out = t4.pow_int(9) * (t2 * t3).pow_int(-(2 * m + 2 * n + 3))
    if m + n - k:
        out = out * s.pow_int(m + n - k)
    return out


def reference_u_plane_coefficient(series, m, n):
    a = 2 * m + 2 * n + 3
    v = series.val()
    theta_order = q_order(1 - (series.prec if v is None else v) + 3 * a + 3)
    total = Fraction(0)
    for k in range(n + 1):
        scalar = (
            Fraction((-1) ** (k + 1))
            / (Fraction(2) ** (n - 1) * Fraction(3) ** n)
            * Fraction(math.factorial(2 * n), math.factorial(n - k) * math.factorial(k))
        )
        factor = reference_theta_factor(m, n, k, theta_order)
        term = factor * reference_cohen_bracket(series, k)
        total += term.constant_term() * scalar
    return total


def reference_phi_route_b(m, n):
    rel = 48 * (m + n + 2) + 1
    z0 = z0_hat(q_order(rel - 48))
    tq = theta_quotient_factor(q_order(rel - 48))
    h8 = h_series(q_order(Fraction(rel - 24, 8))).rescale_exponents(8, 1)
    total = Fraction(0)
    for k in range(n + 1):
        term = tq * reference_bracket_hat(h8, k)
        if m + n - k:
            term = term * z0.pow_int(m + n - k)
        total += Fraction((-1) ** k * math.comb(n, k)) * term.constant_term()
    scalar = -Fraction(
        math.factorial(2 * n),
        math.factorial(n) * 2 ** (2 * m + 3 * n + 4) * 3 ** (n + 1),
    )
    return scalar * total


def h12(order):
    return h_series(order).scale(Fraction(1, 12))


def pairings(mock, t, k_max):
    """Route A's alternating sums on ``mock`` at degree t over k_max + 1
    rungs, past ``u_plane_coefficient``'s precision guard."""
    return _constant_terms(*basis_a(bracket_ladder(mock, k_max), t), t)


# ------------------------------------------------------------------ routes


@pytest.mark.parametrize("m, n", PAIRS)
def test_routes_and_kernel_match_the_per_pair_reference(m, n):
    order = mock_order_for(m, n)
    assert phi_route_a(m, n) == reference_u_plane_coefficient(h12(order), m, n)
    assert phi_route_b(m, n) == reference_phi_route_b(m, n)
    kernel = q_plus_rescaled(order) - h12(order)
    assert kernel_check(m, n) == reference_u_plane_coefficient(kernel, m, n) == 0


@pytest.mark.parametrize("mock", ["H12", "QplusTau8", "basis2"])
def test_u_plane_coefficient_matches_the_per_pair_reference(mock):
    for m, n in PAIRS:
        order = mock_order_for(m, n)
        series = {
            "H12": lambda: h12(order),
            "QplusTau8": lambda: q_plus_rescaled(order),
            "basis2": lambda: mock_from_coefficients([0, 0, 1], order),
        }[mock]()
        want = reference_u_plane_coefficient(series, m, n)
        assert u_plane_coefficient(series, m, n) == want, (m, n)


@pytest.mark.parametrize("t", range(MAX_DEGREE + 1))
def test_vectors_of_degree_t(t):
    # ROUTE_H12's store holds route A on H: c^B_t = 2^(2t+3) * c^A_t[H]
    # entry by entry, zero for odd t; the kernel's vector, route A on Q+(tau/8)
    # less route A on H/12, is zero
    a, b = route_vectors(ROUTE_H12, t)[t], route_vectors(ROUTE_FINAL, t)[t]
    assert len(a) == len(b) == t + 1
    assert all(cb == 2 ** (2 * t + 3) * ca for ca, cb in zip(a, b))
    if t % 2:
        assert not any(a) and not any(b)
    assert not any(12 * q - h for q, h in zip(route_vectors(ROUTE_QPLUS, t)[t], a))


def deep_pole(order):
    """H/12 plus 2 q^(-1/8-2): valuation -51 lattice units, below H's -3."""
    return h12(order) + Series.monomial(-3 - 2 * LATTICE_DEN, 2, prec=LATTICE_DEN * order)


EDGE_MOCKS = {
    "deep-pole": lambda prec: deep_pole(q_order(prec)).truncate(prec),
    "zero": Series.zero,
    "H12-at-required": lambda prec: h12(q_order(prec)).truncate(prec),
}


@pytest.mark.parametrize("mock", sorted(EDGE_MOCKS))
def test_mocks_at_exactly_the_required_prec_match_the_reference(mock):
    for m, n in PAIRS:
        series = EDGE_MOCKS[mock](required_mock_prec(m, n))
        want = reference_u_plane_coefficient(series, m, n)
        assert u_plane_coefficient(series, m, n) == want, (m, n)
        assert pairings(series, m + n, n)[: n + 1] == pairings(
            series, m + n, m + n)[: n + 1], (m, n)


def test_a_deep_pole_asks_for_a_deeper_theta_family(monkeypatch):
    # at degree 8, H/12 needs thetas to 64 lattice units (depth 8: 6*8 + 16)
    # and the pole at q^(-17/8) to 112 (depth 16)
    depths = []
    family = uplane.theta_family
    monkeypatch.setattr(uplane, "theta_family", lambda d: depths.append(d) or family(d))
    order = mock_order_for(MAX_DEGREE, 0)
    for mock in (h12(order), deep_pole(order)):
        u_plane_coefficient(mock, 0, MAX_DEGREE)
    assert depths == [8, 16]


@pytest.mark.parametrize("mock", sorted(EDGE_MOCKS))
def test_one_lattice_unit_short_raises_with_the_required_prec(mock):
    for m, n in PAIRS:
        need = required_mock_prec(m, n)
        series = EDGE_MOCKS[mock](need - 1)
        with pytest.raises(InsufficientPrecision) as guard:
            u_plane_coefficient(series, m, n)
        assert guard.value.needed == need, (m, n)
        # the guard is up front; the pairing itself sees the constant term
        # certified one lattice unit too short
        with pytest.raises(InsufficientPrecision) as pairing:
            pairings(series, m + n, n)
        assert pairing.value.needed == 1, (m, n)


@pytest.mark.parametrize("t", range(MAX_DEGREE + 2))
def test_qplus_and_kernel_stores_equal_per_degree_functional_vectors(t):
    order = mock_order_for(t, 0)
    qplus = q_plus_rescaled(order)
    stored = route_vectors(ROUTE_QPLUS, t)[t]
    on_h12 = tuple(h / 12 for h in route_vectors(ROUTE_H12, t)[t])
    assert stored == pairings(qplus, t, t) == on_h12
    kernel = pairings(qplus - h12(order), t, t)
    difference = tuple(q - h for q, h in zip(stored, on_h12))
    assert difference == kernel and not any(kernel)


# ---------------------------------------------------------------- brackets

LADDER_DEPTH = 6
OPERANDS = {
    "H12": lambda scale: h12(3).rescale_exponents(scale, 1),
    "monomial": lambda scale: Series.monomial(-24, 3, prec=24 * 20),
    "zero": lambda scale: Series.zero(24 * 12),
}


@pytest.mark.parametrize("scale", [1, 8])
@pytest.mark.parametrize("operand", sorted(OPERANDS))
def test_ladder_equals_bracket_at_exact_prec(operand, scale):
    # the plain operator on M(tau/scale), rescaled back, equals the
    # reference's operator conjugated into the scale*tau variable on M
    m = OPERANDS[operand](scale)
    plain = m.rescale_exponents(1, scale)
    ladder = list(bracket_ladder(plain, LADDER_DEPTH))
    assert len(ladder) == LADDER_DEPTH + 1
    for k, rung in enumerate(ladder):
        want = reference_cohen_bracket(m, k, scale)
        got = rung.rescale_exponents(scale, 1)
        assert got == want, k
        assert got.prec == want.prec == m.prec
        assert cohen_bracket(plain, k).rescale_exponents(scale, 1) == want, k


@pytest.mark.parametrize("operand", sorted(OPERANDS))
def test_hat_ladder_equals_bracket_hat_at_exact_prec(operand):
    m8 = OPERANDS[operand](8)
    plain = tuple(bracket_ladder(m8.rescale_exponents(1, 8), LADDER_DEPTH))
    ladder = bracket_hat_ladder(plain)
    assert len(ladder) == LADDER_DEPTH + 1
    for k, rung in enumerate(ladder):
        want = reference_bracket_hat(m8, k)
        assert rung == want, k
        assert rung.prec == want.prec == m8.prec - 48 * k - 24
        assert bracket_hat(m8, k) == want, k


def test_per_pair_entry_points_survive_a_degree_change():
    # the one-degree cache must never serve one degree's vector to another;
    # every call here asks for another degree than the call before it
    for m, n in [(0, 2), (1, 3), (2, 0), (3, 0), (1, 1), (4, 0), (0, 0), (2, 2)]:
        want = PHI_TABLE.get((m, n), 0)
        assert phi_route_a(m, n) == want, (m, n)
        assert phi_route_b(m + 1, n) == PHI_TABLE.get((m + 1, n), 0), (m + 1, n)

