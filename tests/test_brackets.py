"""The weight-raising derivative operator and its normalised companion."""

import random
from fractions import Fraction

import pytest
import sympy

from qmock.qseries import LatticeError, Series
from qmock.forms import eisenstein_e2
from qmock import brackets
from qmock.brackets import (
    bracket_coefficients,
    bracket_ladder,
    bracket_hat,
    cohen_bracket,
    double_factorial,
)
from qmock.mock import h_series, mock_from_coefficients, q_plus
from qmock.uplane import u_plane_coefficient


def test_double_factorial_convention():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105


def test_coefficients_small_k():
    assert bracket_coefficients(0) == ((0, Fraction(1)),)
    assert bracket_coefficients(1) == ((0, Fraction(1)), (1, Fraction(-24)))
    assert bracket_coefficients(2) == (
        (0, Fraction(1)),
        (1, Fraction(-48)),
        (2, Fraction(192)),
    )


@pytest.mark.parametrize("k", range(11))
def test_rows_match_gamma_function(k):
    # (-1)^j C(k,j) Gamma(1/2)/Gamma(1/2+j) 12^j with the Gamma ratio
    # evaluated exactly by sympy, independently of the weight recurrence
    half = sympy.Rational(1, 2)
    row = bracket_coefficients(k)
    assert [j for j, _ in row] == list(range(k + 1))
    for j, c in row:
        want = (-1) ** j * sympy.binomial(k, j) * sympy.gamma(half) / sympy.gamma(half + j) * 12**j
        assert want.is_Rational
        assert c == Fraction(int(want.p), int(want.q))


def test_gamma_ratio_matches_recurrence():
    # Gamma(1/2)/Gamma(1/2+j) carried as 2^j/(2j-1)!! versus the exact
    # recurrence Gamma(1/2+j+1) = (1/2+j) Gamma(1/2+j)
    r = Fraction(1)
    for j in range(51):
        assert Fraction(2**j, double_factorial(2 * j - 1)) == r
        r /= Fraction(1, 2) + j


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        cohen_bracket(Series.one(24), -1)
    with pytest.raises(ValueError):
        bracket_coefficients(-2)


def test_k0_is_identity():
    s = Series.from_pairs([(-3, 1), (21, 7)], prec=96)
    assert cohen_bracket(s, 0) is s


def test_order_zero_ladder_builds_no_e2(monkeypatch):
    calls = []
    monkeypatch.setattr(brackets, "eisenstein_e2",
                        lambda order: calls.append(order) or eisenstein_e2(order))
    s = Series.from_pairs([(-3, 1), (21, 7)], prec=96)
    rungs = list(bracket_ladder(s, 0))
    assert len(rungs) == 1 and rungs[0] is s
    u_plane_coefficient(mock_from_coefficients([0, 1], 8), 3, 0)  # an n = 0 probe
    assert calls == []
    list(bracket_ladder(s, 1))  # the count sees the call an order-1 ladder makes
    assert len(calls) == 1


def test_k1_on_monomial():
    # E^1[q^a] = (E2 - 24 a) q^a
    alpha = Fraction(-1, 8)
    m = Series.monomial(-3, 1, prec=24 * 8)
    got = cohen_bracket(m, 1)
    expected = (eisenstein_e2(10) - 24 * alpha) * m
    assert got.prec == m.prec
    assert got.agrees_with(expected)


def test_k2_explicit_form():
    s = Series.from_pairs([(0, 1), (24, Fraction(1, 2)), (48, -3)], prec=24 * 8)
    e2 = eisenstein_e2(12)
    expected = (
        e2.pow_int(2) * s
        - e2 * s.q_derive() * 48
        + s.q_derive().q_derive() * 192
    )
    assert cohen_bracket(s, 2).prec == s.prec
    assert cohen_bracket(s, 2).agrees_with(expected)


def test_linearity_random():
    rng = random.Random(7)
    for _ in range(10):
        a = Series.from_pairs(
            [(12 * rng.randint(-2, 6), Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])))
             for _ in range(4)],
            prec=24 * 6,
        )
        b = Series.from_pairs(
            [(12 * rng.randint(-2, 6), Fraction(rng.randint(-5, 5), rng.choice([1, 2])))
             for _ in range(4)],
            prec=24 * 6,
        )
        ca = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        cb = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 5]))
        k = rng.randint(0, 3)
        lhs = cohen_bracket(a.scale(ca) + b.scale(cb), k)
        rhs = cohen_bracket(a, k).scale(ca) + cohen_bracket(b, k).scale(cb)
        assert lhs.agrees_with(rhs)


def test_bracket_hat_zero_input():
    z = Series.zero(24 * 12)
    assert bracket_hat(z, 2).is_zero()


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize(
    "operand", ["H8", "monomial", "monomial+1", "monomial+4", "monomial+7", "zero"]
)
def test_bracket_hat_prec_is_operand_prec_minus_48k_minus_24(operand, k, unmemoised):
    # an operand prec off the q^8 lattice must not certify more after the
    # round trip through the tau/8 variable
    m8 = {
        "H8": lambda: h_series(3).rescale_exponents(8, 1),
        "monomial": lambda: Series.monomial(-24, 3, prec=24 * 20),
        "monomial+1": lambda: Series.monomial(-24, 3, prec=24 * 20 + 1),
        "monomial+4": lambda: Series.monomial(-24, 3, prec=24 * 20 + 4),
        "monomial+7": lambda: Series.monomial(-24, 3, prec=24 * 20 + 7),
        "zero": lambda: Series.zero(24 * 12),
    }[operand]()
    out = bracket_hat(m8, k)
    assert out.prec == m8.prec - 48 * k - 24
    if operand == "zero":
        assert out.is_zero()


def test_bracket_hat_rejects_an_operand_off_the_q8_lattice():
    with pytest.raises(LatticeError):
        bracket_hat(Series.monomial(-3, 1, prec=96), 1)


def test_bracket_hat_valuation_k0():
    # eta(8t)^3 = q(...), (Theta2 Theta3)^(-2) = q^(-2)(...), H(8t) = q^(-1)(...)
    h8 = h_series(3).rescale_exponents(8, 1)
    out = bracket_hat(h8, 0)
    assert out.val() == -2 * 24


def test_bracket_hat_even_support_on_kernel_difference():
    order = 12
    need = 24 * order + 48 * 3 + 48
    qp = q_plus(need // 24 + 1)
    h8 = h_series(need // 192 + 1).rescale_exponents(8, 1)
    diff = qp - h8.scale(Fraction(1, 12))
    for k in (0, 1):
        out = bracket_hat(diff, k).truncate(24 * order)
        assert all(e % 48 == 0 for e in out.support())
