"""Appell-Lerch sums, H(tau), the Q+ assembly, elliptic genus consistency."""

import re
from fractions import Fraction

import pytest

from qmock import mock, verify
from qmock.qseries import QSeriesError, Series
from qmock.forms import (
    NAMED_FORMS,
    HalfPeriodPoint,
    V_HALF,
    V_ONE_PLUS_TAU_HALF,
    V_TAU_HALF,
    V_ZERO,
)
from qmock.mock import (
    NAMED_MOCKS,
    PoleAtArgument,
    a_coefficients,
    elliptic_genus_check,
    elliptic_genus_mock,
    elliptic_genus_theta,
    h_series,
    mock_from_coefficients,
    mock_theta_m,
    mu_half_period,
    q_plus,
    q_plus_rescaled,
)

A_TABLE = {1: 45, 2: 231, 3: 770, 4: 2277, 5: 5796, 6: 13915, 7: 30843, 8: 65550}


# ------------------------------------------------------------------------ mu


def test_mu_half_hand_expansion():
    # hand-expanded to order 3, exercising the n = -1, -2 geometric
    # rewrites: mu(1/2) = q^(-1/8) (1/4 + 3/4 q - 7/4 q^2 + 7/2 q^3 + ...)
    mu = mu_half_period(V_HALF, 4)
    expected = {-3: Fraction(1, 4), 21: Fraction(3, 4),
                45: Fraction(-7, 4), 69: Fraction(7, 2)}
    for e, c in expected.items():
        assert mu.coefficient(e) == c
    assert set(mu.support()) <= {-3 + 24 * k for k in range(8)}


def test_mu_n0_term_is_half():
    # the n = 0 geometric factor at v = 1/2 is 1/(1+1) = 1/2, visible in
    # the constant of the hand expansion above times the theta inverse
    mu = mu_half_period(V_HALF, 1)
    assert mu.coefficient(-3) == Fraction(1, 4)


def _periodicity_cases():
    # mu(r + s*tau) is tau-periodic: every s in (1/2)Z off the lattice
    # against its representative s in {0, 1/2}
    for r in (Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(3, 2)):
        for s2 in range(-12, 13):
            if s2 not in (0, 1) and (r.denominator, s2 % 2) != (1, 0):
                yield pytest.param(r, s2, id=f"r={r},s={Fraction(s2, 2)}")


@pytest.mark.parametrize("r, s2", _periodicity_cases())
def test_mu_is_tau_periodic(r, s2, unmemoised):
    for order in range(13):
        want = mu_half_period((r, Fraction(s2 % 2, 2)), order)
        assert mu_half_period((r, Fraction(s2, 2)), order) == want


def test_mu_far_from_the_standard_half_period_is_not_zero(unmemoised):
    # each side of the scan starts at the least exponent, here n = 5,
    # not at n = 0 and -1, whose exponents lie above the certified range
    mu = mu_half_period((Fraction(1, 2), -5), 4)
    assert mu == mu_half_period(V_HALF, 4)
    assert mu.coefficient(-3) == Fraction(1, 4)


@pytest.mark.parametrize("v", [(Fraction(1, 2), -5), (0, Fraction(-7, 2)),
                               (Fraction(1, 2), Fraction(9, 2))])
def test_elliptic_genus_check_is_zero_far_from_the_origin(v, unmemoised):
    diff = elliptic_genus_check(v, 6)
    assert diff.prec == 24 * 6
    assert diff.is_zero()


def test_mu_pole_at_origin():
    with pytest.raises(PoleAtArgument):
        mu_half_period(V_ZERO, 4)
    with pytest.raises(PoleAtArgument):
        mu_half_period(HalfPeriodPoint(Fraction(1), Fraction(0)), 4)


# ------------------------------------------------------------------------- H


def test_h_series_matches_table():
    assert a_coefficients(8) == A_TABLE


@pytest.mark.parametrize("order", [*range(-3, 65), 1024, 4096])
def test_eguchi_hikami_h_equals_the_mu_sum(order, unmemoised):
    # H is built from eta^3 H = -2 E2 + 48 F2; the three mu at the
    # half-periods are its oracle, also where the order certifies no term
    from_mu = Series.combine([(-8, mock.mu_half_period(v, order)) for v in mock.H_POINTS])
    assert mock.h_series(order).to_json_obj() == from_mu.to_json_obj()


def h_with(monkeypatch, exp24, extra, modules):
    """H with ``extra`` added at lattice exponent ``exp24``, as read
    through ``h_series`` in each of ``modules``."""
    h = h_series(10)
    wrong = h + Series.monomial(exp24, extra, prec=h.prec)
    for module in modules:
        monkeypatch.setattr(module, "h_series", lambda order: wrong.truncate(24 * order))


@pytest.mark.parametrize("extra", [1, Fraction(1, 3)], ids=["odd", "non-integer"])
def test_a_coefficient_that_is_not_even_names_no_a_n(extra, monkeypatch):
    # 2 A_3 = 1541 or 1540 + 1/3: halving and truncating would still read 770
    h_with(monkeypatch, -3 + 24 * 3, extra, [mock])
    with pytest.raises(QSeriesError, match=re.escape(f"2 A_3 at q^(3 - 1/8) is {1540 + extra},")):
        a_coefficients(10)
    with pytest.raises(QSeriesError, match="A_3"):
        verify.check_mock_coefficients()


def test_mock_coefficients_requires_minus_two_at_the_pole(monkeypatch):
    h_with(monkeypatch, -3, 1, [mock, verify])
    assert a_coefficients(8) == A_TABLE
    result = verify.check_mock_coefficients()
    assert not result.passed
    assert "q^(-1/8) coefficient -1 (want -2)" in result.detail


def test_h_leading_and_odd_coefficients():
    h = h_series(8)
    assert h.coefficient(-3) == -2
    for k in range(1, 15, 2):
        assert not h.coefficient(-3 + 12 * k)


def test_h_is_real_integral_positive():
    a = a_coefficients(8)
    assert all(isinstance(v, int) and v > 0 for v in a.values())


def test_h_over_12_leading_coefficient():
    h12 = h_series(6).scale(Fraction(1, 12))
    assert h12.coefficient(-3) == Fraction(-1, 6)
    assert h12.coefficient(21) == Fraction(45, 6)


# ------------------------------------------------------------------- M and Q+


def test_mock_theta_m_head():
    m = mock_theta_m(40)
    for e, want in ((7, -1), (15, 2), (23, -3)):
        assert m.coefficient(24 * e) == want
    assert m.coefficient(0) == 0


def test_mock_theta_m_q31_against_two_summand_oracle():
    # independent dict expansion of the first two summands
    N = 40

    def inv_square_one_plus(exp, upto):
        # (1 + q^exp)^(-2) = sum (-1)^j (j+1) q^(j*exp)
        d = {}
        j = 0
        while j * exp <= upto:
            d[j * exp] = (-1) ** j * (j + 1)
            j += 1
        return d

    def mul(a, b, upto):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                if ea + eb <= upto:
                    out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        return out

    # n=0: -q^7 * (1+q^8)^(-2)
    oracle = {7 + e: -c for e, c in inv_square_one_plus(8, N - 7).items()}
    # n=1: +q^31 (1 - q^8) (1+q^8)^(-2) (1+q^24)^(-2)
    part = mul(
        {0: 1, 8: -1},
        mul(inv_square_one_plus(8, N), inv_square_one_plus(24, N), N),
        N - 31,
    )
    for e, c in part.items():
        oracle[31 + e] = oracle.get(31 + e, 0) + c
    assert oracle[31] == 5
    got = mock_theta_m(N)
    assert got.coefficient(24 * 31) == oracle[31]


def test_q_plus_support_and_head():
    qp = q_plus(32)
    assert all((e // 24) % 4 == 3 for e in qp.support())
    assert qp.coefficient(-24) == 1


def test_q_plus_rescaled_expansion():
    s = q_plus_rescaled(3)
    want = (1, 28, 39, 196, 161)
    for k, c in enumerate(want):
        assert s.coefficient(-3 + 12 * k) == c


def test_q_plus_zero_order_empty():
    # order 0 certifies nothing at or above q^0, but the q^-1 pole lies
    # below it and must still be there
    qp = q_plus(0)
    assert qp.prec == 0
    assert qp.support() == (-24,)
    assert qp.coefficient(-24) == 1
    assert str(qp) == "q^-1 + O(q^(0))"
    assert str(q_plus_rescaled(0)) == "q^(-1/8) + O(q^(0))"


@pytest.mark.parametrize("order", [0, 1, 32])
def test_a_q_plus_build_builds_a_once(order, monkeypatch):
    # A_{3,8} and A_{7,8} are two sieves of one build of A
    calls = []

    def modular_a(work, raw=mock.modular_a):
        calls.append(work)
        return raw(work)

    monkeypatch.setattr(mock, "modular_a", modular_a)
    qp = q_plus.__wrapped__(order)
    assert calls == [max(1, order)]
    assert qp == q_plus(order)


@pytest.mark.parametrize("order", range(17))
@pytest.mark.parametrize("name", sorted({**NAMED_FORMS, **NAMED_MOCKS}))
def test_named_series_certify_only_true_coefficients(name, order, unmemoised):
    # every coefficient a series certifies, at every small order, must
    # survive a computation at a higher order
    make = {**NAMED_FORMS, **NAMED_MOCKS}[name]
    make = getattr(make, "__wrapped__", make)
    got = make(order)
    assert got.prec == 24 * order
    assert got.agrees_with(make(order + 2))


@pytest.mark.parametrize("order", range(1, 17))
@pytest.mark.parametrize(
    "v",
    [V_HALF, V_ONE_PLUS_TAU_HALF, V_TAU_HALF, HalfPeriodPoint(Fraction(1), Fraction(-1, 2))],
    ids=["half", "onetauhalf", "tauhalf", "one-minustauhalf"],
)
def test_elliptic_genus_check_is_zero_to_the_full_order(v, order, unmemoised):
    diff = elliptic_genus_check(v, order)
    assert diff.prec == 24 * order
    assert diff.is_zero()


def test_q_plus_minus_h12_denominators_divide_6():
    diff = q_plus_rescaled(6) - h_series(6).scale(Fraction(1, 12))
    for e in diff.support():
        assert 6 % diff.coefficient(e).denominator == 0


# ------------------------------------------------------- explicit mock parts


def test_mock_from_coefficients_basis():
    e0 = mock_from_coefficients([1], 4)
    assert e0 == Series.monomial(-3, 1, prec=96)


def test_mock_from_coefficients_reconstructs_h12():
    h12 = h_series(5).scale(Fraction(1, 12))
    a = a_coefficients(5)
    hs = [Fraction(-1, 6), 0]
    for n in (1, 2, 3, 4):
        hs += [Fraction(a[n], 6), 0]
    hs.append(Fraction(a[5], 6))
    rebuilt = mock_from_coefficients(hs, 5)
    assert rebuilt.agrees_with(h12)


def test_mock_from_coefficients_reconstructs_qplus():
    s = mock_from_coefficients([1, 28, 39, 196, 161], 3)
    assert s.agrees_with(q_plus_rescaled(2))


def test_mock_from_coefficients_linear():
    a = mock_from_coefficients([0, 1], 4)
    b = mock_from_coefficients([0, 0, 0, 1], 4)
    both = mock_from_coefficients([0, 1, 0, 1], 4)
    assert (a + b) == both


def test_mock_series_grading_accessor():
    # the k-th graded coefficient sits at q^(-1/8 + k/2)
    mk = mock_from_coefficients([5, 0, Fraction(2, 3)], 4)
    assert mk.coefficient(-3 + 12 * 0) == 5
    assert mk.coefficient(-3 + 12 * 1) == 0
    assert mk.coefficient(-3 + 12 * 2) == Fraction(2, 3)


# ------------------------------------------------------------ elliptic genus


def test_genus_agreement_at_half_periods():
    for v in (V_HALF, V_ONE_PLUS_TAU_HALF):
        assert elliptic_genus_check(v, 16).is_zero()


def test_genus_theta_route_at_origin_is_24():
    z = elliptic_genus_theta(V_ZERO, 12)
    assert z.agrees_with(Series.monomial(0, 24, prec=z.prec))


def test_genus_mock_route_pole_at_origin():
    with pytest.raises(PoleAtArgument):
        elliptic_genus_mock(V_ZERO, 8)
