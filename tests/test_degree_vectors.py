"""Per-degree constant-term vectors and bracket ladders against the
per-pair loops they replaced.

The reference functions below are the per-(m, n), per-k evaluation
that ``uplane`` and ``brackets`` used before every Phi of one degree came
from one vector per route: each pair rebuilds its own theta factor,
Z0hat power and bracket for every k.  They share only the series
builders with the code under test.
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
from qmock.qseries import Series, q_order
from qmock.uplane import (
    kernel_check,
    kernel_vector,
    mock_order_for,
    phi_route_a,
    phi_route_b,
    theta_quotient_factor,
    u_plane_coefficient,
    vector_a,
    vector_b,
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
    # c^B_t = 3 * 2^(2t+5) * c^A_t entry by entry, zero for odd t; the
    # kernel's vector is zero
    a, b = vector_a(t), vector_b(t)
    assert len(a) == len(b) == t + 1
    assert all(cb == 3 * 2 ** (2 * t + 5) * ca for ca, cb in zip(a, b))
    if t % 2:
        assert not any(a) and not any(b)
    assert not any(kernel_vector(t))


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
    m = OPERANDS[operand](scale)
    ladder = list(bracket_ladder(m, LADDER_DEPTH, scale))
    assert len(ladder) == LADDER_DEPTH + 1
    for k, rung in enumerate(ladder):
        want = reference_cohen_bracket(m, k, scale)
        assert rung == want, k
        assert rung.prec == want.prec == m.prec
        assert cohen_bracket(m, k, scale) == want, k


@pytest.mark.parametrize("operand", sorted(OPERANDS))
def test_hat_ladder_equals_bracket_hat_at_exact_prec(operand):
    m8 = OPERANDS[operand](8)
    ladder = list(bracket_hat_ladder(m8, LADDER_DEPTH))
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


def test_generating_function_builds_each_vector_once_per_degree(monkeypatch):
    # vector_a and vector_b each cache the degree asked for last, so the
    # sweep over degrees 0..4 builds one vector per route and degree
    calls = dict.fromkeys(("functional_vector", "theta_quotient_factor"), 0)
    for name in calls:
        def counting(*args, _fn=getattr(uplane, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(uplane, name, counting)
    vector_a.cache_clear()
    vector_b.cache_clear()
    uplane.generating_function(4)
    assert calls == {"functional_vector": 5, "theta_quotient_factor": 5}
