"""Eta quotients, theta functions, Eisenstein series: values and identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmock import forms
from qmock.qseries import QSeriesError, Series
from qmock.forms import (
    EtaQuotientSpec,
    HalfPeriodPoint,
    NAMED_FORMS,
    PhaseError,
    SPEC_A,
    SPEC_B,
    V_HALF,
    eisenstein_e2,
    e_star,
    eta,
    eta_quotient,
    modular_a,
    modular_b,
    theta_big,
    theta_big_direct,
    theta_char,
    theta_nullwert,
    z0_hat,
)


def q_coeff(s, exponent):
    return s.coefficient(24 * exponent)


# ----------------------------------------------------------------------- eta


def test_eta_prefactor():
    e = eta(1, 2)
    assert e.val() == 1  # q^(1/24)
    assert e.coefficient(1) == 1


def test_eta8_cubed_is_rescaled_jacobi():
    got = eta(8, 60).pow_int(3).truncate(24 * 50)
    for e, want in ((1, 1), (9, -3), (25, 5), (49, -7)):
        assert q_coeff(got, e) == want
    expected = {1, 9, 25, 49}
    assert set(x // 24 for x in got.support()) == expected


def test_modular_a_expansion():
    a = modular_a(40)
    head = {-1: 1, 3: -8, 7: 27, 11: -56, 15: 105}
    for e, want in head.items():
        assert q_coeff(a, e) == want
    assert a.val() == -24


def test_modular_b_expansion():
    b = modular_b(40)
    for e, want in ((-1, 1), (7, -5), (15, 9)):
        assert q_coeff(b, e) == want


def test_sieved_a_series():
    a38 = NAMED_FORMS["A38"](16)
    assert q_coeff(a38, 3) == -8
    assert q_coeff(a38, 11) == -56
    assert all((e // 24) % 8 == 3 for e in a38.support())
    a78 = NAMED_FORMS["A78"](20)
    assert q_coeff(a78, -1) == 1
    assert q_coeff(a78, 7) == 27
    assert q_coeff(a78, 15) == 105
    assert all((e // 24) % 8 == 7 for e in a78.support())


def test_empty_eta_quotient_is_one():
    assert eta_quotient(EtaQuotientSpec(()), 4).agrees_with(Series.one(96))


def test_eta_quotient_specs_have_pole_q_inverse():
    assert SPEC_A.prefactor_exp24() == -24
    assert SPEC_B.prefactor_exp24() == -24


# --------------------------------------------------------------------- theta


def test_theta_nullwert_heads():
    t2 = theta_nullwert(2, 4)
    assert t2.coefficient(3) == 2 and t2.coefficient(27) == 2
    t3 = theta_nullwert(3, 4)
    assert t3.coefficient(0) == 1 and t3.coefficient(12) == 2 and t3.coefficient(48) == 2
    t4 = theta_nullwert(4, 4)
    assert t4.coefficient(12) == -2 and t4.coefficient(48) == 2


def test_theta_big_heads():
    assert [q_coeff(theta_big(2, 30), e) for e in (1, 9, 25)] == [1, 1, 1]
    t3 = theta_big(3, 20)
    assert [q_coeff(t3, e) for e in (0, 4, 16)] == [1, 2, 2]
    t4 = theta_big(4, 20)
    assert [q_coeff(t4, e) for e in (0, 4, 16)] == [1, -2, 2]


def test_theta_big_quotient_equals_direct_sum():
    for j in (2, 3, 4):
        assert theta_big(j, 64).agrees_with(theta_big_direct(j, 64))


@pytest.mark.parametrize("j", [2, 3, 4])
def test_theta_big_quotient_equals_direct_sum_at_the_battery_depth(j, unmemoised):
    # 8 * 128, the depth the rescale relations read
    assert forms.theta_big(j, 1024) == theta_big_direct(j, 1024)


def pow_int_eta_quotient(spec, order):
    """The eta quotient with each positive factor raised by ``pow_int``
    before it multiplies: the reference for ``eta_quotient``, which takes
    one sparse factor at a time."""
    prec_target = 24 * order
    rel = prec_target - spec.prefactor_exp24()
    result = Series.one(rel)
    for k, e in spec.factors:
        factor = forms._eta_lattice(k, max(rel + k, k + 1))
        if e > 0:
            result = result * factor.pow_int(e)
        for _ in range(-e):
            result = result / factor
    return result.truncate(prec_target)


@pytest.mark.parametrize("name, spec", [("modular_a", SPEC_A), ("modular_b", SPEC_B)])
def test_eta_quotient_equals_its_pow_int_form(name, spec, unmemoised):
    got, want = getattr(forms, name)(256), pow_int_eta_quotient(spec, 256)
    assert got.prec == want.prec == 24 * 256
    assert got == want


def test_theta_char_at_half_is_minus_theta2():
    p, got = theta_char(1, 1, V_HALF, 6)
    assert p == 2  # i^2 * theta2
    assert got.agrees_with(theta_nullwert(2, 6))


@pytest.mark.parametrize("order", [0, 1, 7, 64])
@pytest.mark.parametrize("j", [2, 3, 4])
def test_theta_nullwert_against_direct_sum_oracle(j, order, unmemoised):
    # theta2 = sum_n q^((2n+1)^2/8), theta3 = sum_n q^(n^2/2) and
    # theta4 = sum_n (-1)^n q^(n^2/2) over all integers n, summed into a
    # plain dict keyed by 24 * exponent, independent of the Series engine
    prec = 24 * order
    span = 24
    assert min(12 * span**2, 3 * (2 * span - 1) ** 2) >= prec  # the sums are complete
    want = {}
    for n in range(-span, span + 1):
        e = 3 * (2 * n + 1) ** 2 if j == 2 else 12 * n * n
        if e < prec:
            want[e] = want.get(e, 0) + ((-1) ** n if j == 4 else 1)
    got = forms.theta_nullwert(j, order)
    assert got.prec == prec
    assert {e: got.coefficient(e) for e in got.support()} == {
        e: c for e, c in want.items() if c
    }


def test_theta_char_termwise_phase_oracle():
    # term n of theta_(a,b)(r + s*tau) is i^((2n+a)(2r+b)) q^(e/24) with
    # e = 3(2n+a)^2 + 6(2n+a)*2s; its phase is a turn count mod 4, and the
    # terms of one exponent sum to a Gaussian integer (re, im)
    units = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^t, t mod 4
    order = 4
    for a in (0, 1):
        for b in (0, 1):
            for r2 in range(-2, 3):
                for s2 in range(-3, 4):
                    p, got = theta_char(a, b, (Fraction(r2, 2), Fraction(s2, 2)), order)
                    assert p == a * (r2 + b) % 4
                    assert got.prec == 24 * order
                    want = {}
                    for n in range(-30, 30):
                        m = 2 * n + a
                        e = 3 * m * m + 6 * s2 * m
                        if e < got.prec:
                            re, im = units[m * (r2 + b) % 4]
                            want_re, want_im = want.get(e, (0, 0))
                            want[e] = (want_re + re, want_im + im)
                    for e in set(want) | set(got.support()):
                        c = got.coefficient(e)
                        assert want.get(e, (0, 0)) == (units[p][0] * c, units[p][1] * c)


WINDOW = range(-40, 40)  # reaches every term below order 16 for |s| <= 6


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(-4, 4), st.integers(-12, 12),
       st.integers(0, 16))
def test_theta_char_equals_the_sum_over_a_fixed_window(a, b, r2, s2, order):
    # no early stop: every n of the window, kept when its exponent is below prec
    prec = 24 * order
    units = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^t, t mod 4

    def exp24(n):
        return 3 * (2 * n + a) ** 2 + 6 * s2 * (2 * n + a)

    assert min(exp24(WINDOW[0]), exp24(WINDOW[-1])) >= 24 * 16
    want = {}
    for n in WINDOW:
        if exp24(n) < prec:
            re, im = units[(2 * n + a) * (r2 + b) % 4]
            want_re, want_im = want.get(exp24(n), (0, 0))
            want[exp24(n)] = (want_re + re, want_im + im)
    p, got = theta_char(a, b, (Fraction(r2, 2), Fraction(s2, 2)), order)
    assert got.prec == prec
    assert {e: (units[p][0] * got.coefficient(e), units[p][1] * got.coefficient(e))
            for e in got.support()} == {e: c for e, c in want.items() if c != (0, 0)}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16), st.integers(0, 16))
def test_eta_equals_the_sum_over_a_fixed_window(k, order):
    # the pentagonal sum over every j of the window, with no early stop
    prec = 24 * order
    assert min(k * (1 + 12 * j * (3 * j - 1)) for j in (WINDOW[0], WINDOW[-1])) >= 24 * 16
    want = {}
    for j in WINDOW:
        e = k * (1 + 12 * j * (3 * j - 1))
        if e < prec:
            want[e] = want.get(e, 0) + (-1) ** j
    got = eta(k, order)
    assert got.prec == prec
    assert {e: got.coefficient(e) for e in got.support()} == {e: c for e, c in want.items() if c}


def test_eta_certifies_the_empty_prefix_and_rejects_a_negative_order():
    empty = eta(1, 0)
    assert empty.prec == 0 and empty.is_zero()
    assert str(empty) == "O(q^(0))"
    with pytest.raises(ValueError):
        eta(1, -1)


@pytest.mark.parametrize("k", [0, -1])
def test_eta_rejects_a_multiplier_below_one(k):
    # the pentagonal scan stops only on exponents that climb going outward;
    # for k = 0 they are all 0 and for k < 0 they fall
    with pytest.raises(ValueError, match=f"eta multiplier must be a positive int, got {k}"):
        eta(k, 1)


def test_theta_char_rejects_deep_denominators():
    with pytest.raises(PhaseError):
        HalfPeriodPoint(Fraction(1, 3), Fraction(0))
    with pytest.raises(PhaseError):
        theta_char(1, 1, (Fraction(1, 4), Fraction(0)), 4)


def test_jacobi_quartic_identity():
    o = 40
    t2, t3, t4 = (theta_nullwert(j, o) for j in (2, 3, 4))
    assert (t2.pow_int(4) + t4.pow_int(4) - t3.pow_int(4)).is_zero()


def test_rescale_relations():
    o = 24
    assert theta_big(2, 8 * o).rescale_exponents(1, 8).scale(2).agrees_with(
        theta_nullwert(2, o)
    )
    for j in (3, 4):
        assert theta_big(j, 8 * o).rescale_exponents(1, 8).agrees_with(
            theta_nullwert(j, o)
        )


# ---------------------------------------------------------------- Eisenstein


def divisor_sum(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_e2_lead_and_divisor_oracle():
    e2 = eisenstein_e2(300)
    assert e2.coefficient(0) == 1
    for n in range(1, 300):
        assert q_coeff(e2, n) == -24 * divisor_sum(n)


def test_estar_head_against_direct_sum_oracle():
    # expand 16*Theta2^4 + Theta3^4 with plain dict arithmetic on the
    # defining sums, independent of the Series engine
    N = 40

    def theta2_dict():
        d = {}
        n = 0
        while (2 * n + 1) ** 2 <= N:
            d[(2 * n + 1) ** 2] = 1
            n += 1
        return d

    def theta3_dict():
        d = {0: 1}
        n = 1
        while 4 * n * n <= N:
            d[4 * n * n] = 2
            n += 1
        return d

    def mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                if ea + eb <= N:
                    out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        return out

    t2 = theta2_dict()
    t24 = mul(mul(t2, t2), mul(t2, t2))
    t3 = theta3_dict()
    t34 = mul(mul(t3, t3), mul(t3, t3))
    oracle = {e: 16 * c for e, c in t24.items()}
    for e, c in t34.items():
        oracle[e] = oracle.get(e, 0) + c

    got = e_star(30)
    assert oracle[0] == 1 and oracle[4] == 24 and oracle[8] == 24
    for e in range(0, 30):
        assert q_coeff(got, e) == oracle.get(e, 0)
    # strictly inside Z[[q^4]]: no q^2 term can appear
    assert all(e % 96 == 0 for e in got.support())


def test_theta_big_product_inverse_square():
    # (Theta2*Theta3)^(-2) = q^(-2) (1 + ...), supported on q^(-2) * Z[[q^4]]
    out = (theta_big(2, 20) * theta_big(3, 20)).pow_int(-2)
    assert out.val() == -48
    assert out.coefficient(-48) == 1
    assert all((e + 48) % 96 == 0 for e in out.support())


def test_z0_hat_leading_and_even():
    z = z0_hat(12)
    assert z.val() == -48
    assert z.coefficient(-48) == 1
    assert all(e % 48 == 0 for e in z.support())


@pytest.mark.parametrize("perturb", [
    pytest.param(lambda e: e.scale(2), id="coefficient-2"),
    pytest.param(lambda e: e - Series.one(e.prec), id="valuation-up"),
])
def test_z0_hat_refuses_a_wrong_leading_term(perturb, unmemoised, monkeypatch):
    # an explicit raise, not an assert, so ``python -O`` keeps the guard
    real = forms.e_star
    monkeypatch.setattr(forms, "e_star", lambda order: perturb(real(order)))
    with pytest.raises(QSeriesError, match="exactly q\\^-2"):
        forms.z0_hat(12)


def test_z0_derivative_exact_constant():
    # cross-validation of the derivative against the theta quotient:
    # the exact relation carries the constant -2
    o = 32
    lhs = z0_hat(o + 1).q_derive().truncate(24 * o)
    t2, t3, t4 = (theta_big(j, o + 8) for j in (2, 3, 4))
    quot = t4.pow_int(9) * (t2 * t3 * eta(8, o + 8).pow_int(3)).invert()
    assert lhs.agrees_with(quot.scale(-2))
    assert not lhs.agrees_with(quot)
