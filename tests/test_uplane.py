"""The constant-term functional, invariant tables, and the Z0hat mechanism."""

import math
import random
from fractions import Fraction

import pytest

from qmock import uplane
from qmock.cli import main
from qmock.qseries import InsufficientPrecision, Series
from qmock.forms import z0_hat
from qmock.mock import mock_from_coefficients
from qmock.mock import h_series
from qmock.uplane import (
    ROUTE_FINAL,
    ROUTE_H12,
    ROUTE_QPLUS,
    ROUTE_TABLE,
    InvariantRecord,
    NotPolynomialInZ0,
    OddExponent,
    Z0Polynomial,
    column_extract,
    donaldson_phi,
    format_z,
    generating_function,
    h_k_series,
    kernel_check,
    mock_order_for,
    phi_route_a,
    phi_route_b,
    required_mock_prec,
    route_vectors,
    theta_quotient_factor,
    u_plane_coefficient,
    z0_reduce,
    _constant_terms,
)

PHI_TABLE = {
    (0, 0): Fraction(-1),
    (0, 2): Fraction(-3, 16),
    (1, 1): Fraction(-5, 16),
    (2, 0): Fraction(-19, 16),
    (0, 4): Fraction(-232, 256),
    (1, 3): Fraction(-152, 256),
    (2, 2): Fraction(-136, 256),
    (3, 1): Fraction(-184, 256),
    (4, 0): Fraction(-680, 256),
}

COLUMN_TABLE = {
    (0, 0): (Fraction(6), Fraction(-1, 4)),
    (0, 2): (Fraction(-2133, 64), Fraction(9, 4), Fraction(-49, 64)),
    (1, 1): (Fraction(-195, 64), Fraction(1, 4), Fraction(-7, 64)),
    (2, 0): (Fraction(411, 64), Fraction(-1, 4), Fraction(-1, 64)),
    (0, 4): (Fraction(108741, 128), Fraction(44631, 1024),
             Fraction(2401, 128), Fraction(-14641, 1024)),
    (1, 3): (Fraction(-1749, 128), Fraction(10341, 1024),
             Fraction(-49, 128), Fraction(-1331, 1024)),
    (2, 2): (Fraction(-3687, 128), Fraction(2895, 1024),
             Fraction(-91, 128), Fraction(-121, 1024)),
    (3, 1): (Fraction(-753, 128), Fraction(589, 1024),
             Fraction(-29, 128), Fraction(-11, 1024)),
    (4, 0): (Fraction(1725, 128), Fraction(-505, 1024),
             Fraction(-7, 128), Fraction(-1, 1024)),
}


def test_phi_table_all_routes():
    for (m, n), want in PHI_TABLE.items():
        assert donaldson_phi(m, n, ROUTE_QPLUS) == want
        assert donaldson_phi(m, n, ROUTE_H12) == want
        assert donaldson_phi(m, n, ROUTE_FINAL) == want


def test_insufficient_precision_reports_requirement():
    short = mock_from_coefficients([1], 1)  # prec 24
    with pytest.raises(InsufficientPrecision) as exc:
        u_plane_coefficient(short, 2, 2)
    assert exc.value.needed == required_mock_prec(2, 2) == 3 * (4 + 4 + 3) + 1


def test_columns_match_table():
    for (m, n), want in COLUMN_TABLE.items():
        got = tuple(column_extract(m, n, len(want) - 1))
        assert got == want


def test_column_support_cutoff():
    # the basis element q^(-1/8 + k/2) is annihilated once its exponent
    # clears the theta factor's pole depth
    col = column_extract(0, 0, 4)
    assert col[2] == col[3] == col[4] == 0


def test_functional_is_dot_product_of_column():
    # the (0,2) row against H/12: -(49/64)(45/6) - (2133/64)(-1/6) = -3/16
    col = COLUMN_TABLE[(0, 2)]
    hs = (Fraction(-1, 6), Fraction(0), Fraction(45, 6))
    dot = sum(c * h for c, h in zip(col, hs))
    assert dot == Fraction(-3, 16)
    assert dot == donaldson_phi(0, 2, ROUTE_H12)


def test_functional_linearity():
    rng = random.Random(3)
    m, n = 1, 1
    order = mock_order_for(m, n)
    for _ in range(5):
        va = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(4)]
        vb = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(4)]
        ca = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 7]))
        cb = Fraction(rng.randint(-5, 5), rng.choice([1, 3]))
        combo = [ca * x + cb * y for x, y in zip(va, vb)]
        lhs = u_plane_coefficient(mock_from_coefficients(combo, order), m, n)
        rhs = ca * u_plane_coefficient(
            mock_from_coefficients(va, order), m, n
        ) + cb * u_plane_coefficient(mock_from_coefficients(vb, order), m, n)
        assert lhs == rhs


def test_kernel_vanishes():
    for total in range(6):
        for m in range(total + 1):
            assert kernel_check(m, total - m) == 0


def test_kernel_equals_route_difference():
    for m, n in ((m, t - m) for t in range(9) for m in range(t + 1)):
        direct = donaldson_phi(m, n, ROUTE_QPLUS) - donaldson_phi(m, n, ROUTE_H12)
        assert kernel_check(m, n) == direct == 0


def test_parity_vanishing():
    for total in (1, 3, 5):
        for m in range(total + 1):
            n = total - m
            assert donaldson_phi(m, n, ROUTE_QPLUS) == 0
            assert donaldson_phi(m, n, ROUTE_H12) == 0
            assert donaldson_phi(m, n, ROUTE_FINAL) == 0


def test_generating_function_records_and_routes():
    records, z_string = generating_function(4)
    table = {(r.m, r.n): r.value for r in records}
    assert table == {k: v for k, v in PHI_TABLE.items()}
    assert all(r.route == ROUTE_FINAL for r in records)
    assert z_string.startswith("Z(p,S) = -1")
    assert "5/32*p*S^2" in z_string
    assert "19/32*p^2" in z_string
    assert "1/128*S^4" in z_string


def test_next_diagonal_pinned_by_route_agreement():
    # the m+n = 6 diagonal, beyond the tabulated rows; the expected
    # values were frozen from the two independent evaluation routes
    # agreeing exactly, which is the module's designed oracle
    expected = {
        (0, 6): Fraction(-69525, 4096),
        (1, 5): Fraction(-26907, 4096),
        (2, 4): Fraction(-12853, 4096),
        (3, 3): Fraction(-7803, 4096),
        (4, 2): Fraction(-6357, 4096),
        (5, 1): Fraction(-8155, 4096),
        (6, 0): Fraction(-29557, 4096),
    }
    for (m, n), want in expected.items():
        a = phi_route_a(m, n)
        b = phi_route_b(m, n)
        assert a == b == want


def test_records_csv_format(capsys):
    assert main(["table", "--max", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,n,phi_num,phi_den,route"
    assert lines[1] == "0,0,-1,1,FinalFormula"
    assert lines[2] == "0,2,-3,16,FinalFormula"


def test_format_z_omits_zero_terms():
    assert format_z([InvariantRecord(0, 0, Fraction(0), ROUTE_FINAL)]) == "Z(p,S) = 0"


def test_theta_quotient_factor_valuation():
    tq = theta_quotient_factor(12)
    assert tq.val() == -48
    assert tq.coefficient(-48) == 1


# each builder must certify exactly the order it is asked for, and only
# true coefficients: a factor built one q-unit short shows as a shorter
# prec, which a final truncate cannot hide.  The memoised builders are
# swept unmemoised (``__wrapped__``, and the fixture for the H_k family),
# so a truncation served from a deeper build cannot pass as an exact one
SWEPT = {
    "theta_quotient_factor": theta_quotient_factor.__wrapped__,
    **{f"h_k_series-{k}": (lambda order, k=k: h_k_series(k, order)) for k in range(4)},
    "Z0Polynomial.evaluate": Z0Polynomial(
        (Fraction(5), Fraction(-560), Fraction(0), Fraction(35, 3))
    ).evaluate,
}


@pytest.mark.parametrize("order", range(1, 17))
@pytest.mark.parametrize("name", sorted(SWEPT))
def test_builders_certify_exactly_their_order(name, order, unmemoised):
    got = SWEPT[name](order)
    assert got.prec == 24 * order
    assert got.agrees_with(SWEPT[name](order + 2))


# ----------------------------------------------------------- Z0hat reduction


def test_degree_zero_builds_no_z0_hat(monkeypatch):
    calls = []
    monkeypatch.setattr(uplane, "z0_hat", lambda order: calls.append(order) or z0_hat(order))
    assert z0_reduce(Series.one(48), 0).coefficients == (Fraction(1),)
    assert Z0Polynomial((Fraction(3),)).evaluate(4) == Series.monomial(0, 3, prec=96)
    assert calls == []
    Z0Polynomial((Fraction(3), Fraction(1))).evaluate(4)  # the count sees a degree-1 build
    assert len(calls) == 1


def test_z0_reduce_square():
    z = z0_hat(16)
    poly = z0_reduce(z.pow_int(2).truncate(24 * 8), 4)
    assert poly.coefficients == (Fraction(0), Fraction(0), Fraction(1))


def test_z0_reduce_constant():
    s = Series.monomial(0, 5, prec=24 * 4)
    poly = z0_reduce(s, 2)
    assert poly.coefficients == (Fraction(5),)


def test_z0_reduce_rejects_odd_exponents():
    with pytest.raises(OddExponent):
        z0_reduce(Series.monomial(24, 1, prec=96), 2)


def test_z0_reduce_rejects_non_polynomial():
    z = z0_hat(10)
    junk = (z + Series.monomial(48, 1, prec=z.prec)).truncate(24 * 8)
    with pytest.raises(NotPolynomialInZ0) as exc:
        z0_reduce(junk, 4)
    assert str(exc.value) == "nonzero tail starting at q^2"


def test_z0_reduce_rejects_deep_pole():
    z = z0_hat(16)
    with pytest.raises(NotPolynomialInZ0) as exc:
        z0_reduce(z.pow_int(3).truncate(24 * 6), 2)
    assert str(exc.value) == "pole order 6 exceeds 2*max_degree = 4"


def test_z0_reduce_rejects_an_uncertified_constant():
    with pytest.raises(InsufficientPrecision) as exc:
        z0_reduce(Series.monomial(-48, 1, prec=-12), 2)
    assert str(exc.value) == ("z0_reduce reads the constant term at q^0, but the "
                              "input is only certified below q^(-1/2)")


@pytest.mark.parametrize("order", (1, 4, 9))
@pytest.mark.parametrize("degree", range(7))
def test_z0_reduce_sweep_recovers_every_degree(degree, order):
    # odd interior degrees carry zero, so the sweep must skip them exactly
    want = tuple(Fraction(0) if 0 < d < degree and d % 2 else Fraction((-1) ** d * (d + 2), 3)
                 for d in range(degree + 1))
    z = z0_hat(order + 2 * degree + 2)
    prec = 24 * order
    f = Series.monomial(0, want[0], prec=prec)
    for d, c in enumerate(want[1:], 1):
        f = f + z.pow_int(d).scale(c).truncate(prec)
    poly = z0_reduce(f, degree)
    assert poly.coefficients == want
    assert poly.evaluate(order) == f


def test_h_k_series_structure():
    for k in range(3):
        hk = h_k_series(k, 16)
        assert all(e % 48 == 0 for e in hk.support())
        v = hk.val()
        assert v is not None and v >= -48 * (k + 1)
        poly = z0_reduce(hk, 2 * k + 3)
        assert poly.evaluate(12).agrees_with(hk.truncate(24 * 12))


def test_h_k_zero_difference_gives_zero():
    # same mechanism applied to Q+ minus itself
    from qmock.brackets import bracket_hat
    from qmock.mock import q_plus

    qp = q_plus(20)
    zero = qp - qp
    assert bracket_hat(zero, 2).is_zero()


def alternating_sum(values, n):
    return sum(Fraction((-1) ** k * math.comb(n, k)) * values[k] for k in range(n + 1))


@pytest.mark.parametrize("route", sorted(ROUTE_TABLE))
def test_each_store_entry_is_its_routes_alternating_sum(route):
    for t in range(10):
        powers, rungs = ROUTE_TABLE[route][0](t)
        terms = [(powers[t - k] * rungs[k]).constant_term() for k in range(t + 1)]
        stored = route_vectors(route, t)[t]
        assert stored == tuple(alternating_sum(terms, n) for n in range(t + 1)), t


def test_differencing_equals_the_fraction_sum():
    # monomial families q^(-j) and x_k q^(t-k) pair to c_k = x_k
    rng = random.Random(11)
    for _ in range(200):
        t = rng.randint(0, 9)
        values = [
            Fraction(rng.randint(-10**6, 10**6), rng.choice([1, 3, 2**20, 7 * 5**9]))
            for _ in range(t + 1)
        ]
        powers = [Series.monomial(-j, 1, prec=24) for j in range(t + 1)]
        rungs = [Series.monomial(t - k, x, prec=24) for k, x in enumerate(values)]
        cut = rng.randint(0, t + 1)
        got = _constant_terms(powers, rungs[:cut], t)
        assert got == tuple(alternating_sum(values, n) for n in range(cut)), (t, cut)


H12 = h_series(4).scale(Fraction(1, 12))


NEGATIVE_CALLS = [
    (donaldson_phi, (-1, 2, ROUTE_H12), "(-1,2)"),
    (donaldson_phi, (-2, 1, ROUTE_FINAL), "(-2,1)"),
    (donaldson_phi, (2, -1, ROUTE_FINAL), "(2,-1)"),
    (phi_route_a, (0, -1), "(0,-1)"),
    (phi_route_b, (-1, 0), "(-1,0)"),
    (kernel_check, (-1, 1), "(-1,1)"),
    (column_extract, (-1, 1, 2), "(-1,1)"),
    (u_plane_coefficient, (H12, -1, 1), "(-1,1)"),
    (u_plane_coefficient, (H12, 1, -1), "(1,-1)"),
    (generating_function, (-1,), "degree -1"),
]


@pytest.mark.parametrize("call, args, named", [
    pytest.param(*case, id=f"{case[0].__name__}{case[2]}") for case in NEGATIVE_CALLS
])
def test_negative_input_is_rejected_before_any_store_read(call, args, named, monkeypatch):
    # a negative n would otherwise index a store from its end
    def unread(*_):
        raise AssertionError("store read")

    for name in ("route_vectors", "bracket_ladder"):
        monkeypatch.setattr(uplane, name, unread)
    with pytest.raises(ValueError, match="must be nonnegative") as exc:
        call(*args)
    assert str(exc.value).startswith(named)
