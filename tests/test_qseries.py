"""The exact Laurent-series ring: laws, precision bookkeeping, wire format."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmock.qseries import (
    InsufficientPrecision,
    LatticeError,
    NotInvertible,
    QSeriesError,
    Series,
)


def S(pairs, prec):
    return Series.from_pairs(pairs, prec=prec)


# ---------------------------------------------------------------- add / mul


def test_add_cancellation():
    one_plus = S([(0, 1), (24, 1)], 240)
    one_minus = S([(0, 1), (24, -1)], 240)
    total = one_plus + one_minus
    assert total == S([(0, 2)], 240)


def test_add_precision_min_rule():
    s = S([(0, 1), (24, 5)], 240)
    z = Series.zero(48)
    out = s + z
    assert out.prec == 48
    assert out == s.truncate(48)


def test_mul_basic():
    one_plus = S([(0, 1), (24, 1)], 240)
    one_minus = S([(0, 1), (24, -1)], 240)
    assert (one_plus * one_minus) == S([(0, 1), (48, -1)], 240)


def test_mul_fractional_binomial():
    # (2q^(1/8) + 2q^(9/8))^2 = 4q^(1/4) + 8q^(5/4) + 4q^(9/4)
    s = S([(3, 2), (27, 2)], 240)
    sq = s * s
    assert sq.coefficient(6) == 4
    assert sq.coefficient(30) == 8
    assert sq.coefficient(54) == 4


def test_mul_theta2_fourth_power_leading_term():
    # oracle: brute-force quadruple sum over the defining exponents (2n+1)^2/8
    order24 = 24 * 6
    exps = []
    n = -12
    while n <= 12:
        e = 3 * (2 * n + 1) ** 2
        if e < order24:
            exps.append(e)
        n += 1
    brute = {}
    for a in exps:
        for b in exps:
            for c in exps:
                for d in exps:
                    e = a + b + c + d
                    if e < order24:
                        brute[e] = brute.get(e, 0) + 1
    theta2 = S([(e, 1) for e in exps], order24)
    prod = theta2.pow_int(4)
    assert min(brute) == 12 and brute[12] == 16  # leading term 16 q^(1/2)
    for e, c in brute.items():
        assert prod.coefficient(e) == c


def test_mul_precision_rule_uses_valuations():
    a = S([(-24, 1)], 48)  # q^-1 known below q^2
    b = S([(24, 1)], 72)  # q known below q^3
    out = a * b
    assert out.prec == min(48 + 24, 72 - 24)


# -------------------------------------------------------------------- invert


def test_invert_geometric():
    s = S([(0, 1), (24, -1)], 24 * 6)
    inv = s.invert()
    for k in range(6):
        assert inv.coefficient(24 * k) == 1


def test_invert_with_prefactor():
    # 1 / (2 q^(1/8) (1+q)) = (1/2) q^(-1/8) (1 - q + q^2 - ...)
    s = S([(3, 2), (27, 2)], 24 * 6 + 3)
    inv = s.invert()
    assert inv.val() == -3
    for k in range(5):
        assert inv.coefficient(-3 + 24 * k) == Fraction((-1) ** k, 2)


def test_invert_rejects_zero():
    with pytest.raises(NotInvertible):
        Series.zero(48).invert()
    with pytest.raises(NotInvertible):
        S([(0, 0), (24, 0)], 48).invert()


def test_invert_random_series_roundtrip():
    rng = random.Random(0)
    for _ in range(100):
        prec = 24 * rng.randint(2, 5)
        lead_exp = 24 * rng.randint(-2, 2)
        pairs = [(lead_exp, Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])))]
        for _ in range(rng.randint(0, 4)):
            pairs.append(
                (lead_exp + 24 * rng.randint(1, 4),
                 Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])))
            )
        s = Series.from_pairs(pairs, prec=prec + lead_exp)
        inv = s.invert()
        prod = s * inv
        assert prod.agrees_with(Series.one(prod.prec))


# ------------------------------------------------------------------ pow_int


def test_pow_basics():
    s = S([(0, 1), (24, 1)], 240)
    assert s.pow_int(2) == S([(0, 1), (24, 2), (48, 1)], 240)
    assert s.pow_int(0).agrees_with(Series.one(240))


def test_pow_negative_valuation():
    # (Theta2*Theta3-like)^(-2) has valuation -2 q-units
    t = S([(24, 1), (120, 2), (216, 1)], 24 * 12)
    out = t.pow_int(-2)
    assert out.val() == -48


def test_pow_negative_requires_invertible():
    with pytest.raises(NotInvertible):
        Series.zero(24).pow_int(-1)


# ------------------------------------------------------------- q_derive etc.


def test_q_derive_monomial():
    m = Series.monomial(-3, 1, prec=24)
    d = m.q_derive()
    assert d.coefficient(-3) == Fraction(-1, 8)
    assert Series.monomial(0, 5, prec=24).q_derive().is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_q_derive_leibniz(data):
    a = data.draw(small_series())
    b = data.draw(small_series())
    lhs = (a * b).q_derive()
    rhs = a.q_derive() * b + a * b.q_derive()
    assert lhs.agrees_with(rhs)


def test_rescale_basic():
    t = S([(-24, 1), (7 * 24, 27)], 24 * 8)
    out = t.rescale_exponents(1, 8)
    assert out.coefficient(-3) == 1
    assert out.coefficient(21) == 27
    assert out.prec == 24


def test_rescale_off_lattice():
    with pytest.raises(LatticeError):
        Series.monomial(3, 1, prec=24).rescale_exponents(1, 5)


def test_rescale_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.choice([2, 3, 4, 8])
        pairs = [(24 * rng.randint(-2, 4), rng.randint(-5, 5)) for _ in range(4)]
        s = Series.from_pairs(pairs, prec=24 * 6)
        back = s.rescale_exponents(k, 1).rescale_exponents(1, k)
        assert back == s


def test_sieve():
    s = S([(0, 1), (24, 1), (48, 1)], 72)
    kept = s.sieve(0, 2)
    assert kept == S([(0, 1), (48, 1)], 72)
    with pytest.raises(LatticeError):
        S([(3, 1)], 24).sieve(0, 2)


def test_sieve_negative_residue_convention():
    s = S([(-24, 1), (7 * 24, 1), (3 * 24, 1)], 24 * 8)
    kept = s.sieve(7, 8)
    assert kept.support() == (-24, 7 * 24)


# -------------------------------------------------------------- coefficient


def test_coefficient_bounds():
    s = S([(0, 1), (24, -1)], 48)
    assert s.coefficient(24) == -1
    assert s.coefficient(-100) == 0  # entire below min_exp
    with pytest.raises(InsufficientPrecision) as exc:
        s.coefficient(48)
    assert exc.value.needed == 49


# ---------------------------------------------------------------- ring laws


@st.composite
def small_series(draw):
    min_exp = draw(st.integers(-4, 4)) * 12
    length = draw(st.integers(1, 6))
    coeffs = [
        Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3])))
        for _ in range(length)
    ]
    return Series(min_exp, coeffs, min_exp + length)


@settings(max_examples=80, deadline=None)
@given(small_series(), small_series())
def test_add_commutes(a, b):
    assert (a + b) == (b + a)


@settings(max_examples=80, deadline=None)
@given(small_series(), small_series())
def test_mul_commutes(a, b):
    assert (a * b).agrees_with(b * a)


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_add_associates(a, b, c):
    assert ((a + b) + c) == (a + (b + c))


@settings(max_examples=40, deadline=None)
@given(small_series(), small_series(), small_series())
def test_mul_associates(a, b, c):
    assert ((a * b) * c).agrees_with(a * (b * c))


@settings(max_examples=40, deadline=None)
@given(small_series(), small_series(), small_series())
def test_distributive(a, b, c):
    assert (a * (b + c)).agrees_with(a * b + a * c)


@settings(max_examples=60, deadline=None)
@given(small_series())
def test_no_coefficient_beyond_prec(s):
    out = (s * s) + s
    with pytest.raises(InsufficientPrecision):
        out.coefficient(out.prec)


def test_canonical_zero_equality():
    assert S([], 48) == Series.zero(48)
    assert Series(0, (0,) * 48, 48) == Series(-24, (0,) * 72, 48)


# ------------------------------------------------------------------ combine


def assert_same_combination(got, want):
    assert (got.min_exp, got.prec) == (want.min_exp, want.prec)
    assert got.to_json_obj() == want.to_json_obj()
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), small_series()), min_size=1, max_size=5),
    st.integers(1, 12),
)
def test_combine_matches_dense_reference(pairs, den):
    assert_same_combination(Series.combine(pairs, den), dense_combine(pairs, den))


def test_combine_edge_cases():
    a = S([(-24, Fraction(1, 3)), (0, 2), (48, Fraction(-5, 2))], 96)
    b = S([(-48, 7), (24, Fraction(1, 5))], 48)  # shorter prec, lower min_exp
    z = Series.zero(72)
    cases = [
        ([(3, a)], 1),
        ([(1, a)], 1),  # a unit weight leaves the prec untouched
        ([(0, a)], 4),  # a lone zero weight is zero at a's prec
        ([(2, a), (-5, b)], 3),  # unequal prec: b's bounds the sum
        ([(0, b), (2, a)], 7),  # a zero weight still caps the prec ...
        ([(0, b), (0, z)], 1),  # ... and nothing but the prec survives
        ([(4, z), (1, a)], 2),  # the zero series with a nonzero weight
        ([(3, a), (-3, a)], 5),  # cancellation to zero
    ]
    for pairs, den in cases:
        assert_same_combination(Series.combine(pairs, den), dense_combine(pairs, den))
    assert Series.combine([(0, b), (2, a)], 7).min_exp == -24


def test_combine_rejects_nonpositive_denominator():
    with pytest.raises(ValueError):
        Series.combine([(1, Series.one(24))], 0)


# -------------------------------------------------------------- wire format


def test_json_roundtrip_bit_faithful():
    s = S([(-3, Fraction(1, 2)), (21, Fraction(-7, 3))], 45)
    text = json.dumps(s.to_json_obj())
    back = Series.from_json_obj(json.loads(text))
    assert back.min_exp == s.min_exp
    assert back.prec == s.prec
    assert back.coeffs == s.coeffs
    assert json.dumps(back.to_json_obj()) == text


def test_json_rejects_wrong_lattice():
    obj = {"lattice_den": 8, "min_exp": 0, "prec": 1, "coeffs": [["1", "1", "0", "1"]]}
    with pytest.raises(LatticeError):
        Series.from_json_obj(obj)


def test_json_rejects_nonzero_imaginary_part():
    obj = Series.monomial(-3, 5, prec=24).to_json_obj()
    assert obj["coeffs"][0] == ["5", "1", "0", "1"]
    obj["coeffs"][0] = ["5", "1", "-2", "3"]
    with pytest.raises(QSeriesError, match=r"entry 0 \(lattice exponent -3\).*-2/3"):
        Series.from_json_obj(obj)


def test_json_strings_survive_big_integers():
    big = 10**40 + 7
    s = Series.monomial(0, Fraction(big, big + 2), prec=24)
    back = Series.from_json_obj(json.loads(json.dumps(s.to_json_obj())))
    assert back.coefficient(0) == Fraction(big, big + 2)


# ------------------------------------------------- dense reference kernel
#
# The dense Fraction multiply, inverse and linear combination that the
# sparse integer kernel replaced, kept over the dense view ``coeffs`` as a
# differential oracle.


def _dense_nonzero(s):
    return [(s.min_exp + k, c.re) for k, c in enumerate(s.coeffs) if c]


def _dense_val(s):
    nz = _dense_nonzero(s)
    return nz[0][0] if nz else None


def dense_mul(a, b):
    av, bv = _dense_val(a), _dense_val(b)
    ea = a.prec if av is None else av
    eb = b.prec if bv is None else bv
    prec = min(a.prec + eb, b.prec + ea)
    lo = ea + eb
    if av is None or bv is None or lo >= prec:
        return Series.zero(prec)
    n = prec - lo
    az = _dense_nonzero(a)
    bz = _dense_nonzero(b)
    acc = [Fraction(0)] * n
    for ea_, ca in az:
        for eb_, cb in bz:
            k = ea_ + eb_ - lo
            if k < n:
                acc[k] += ca * cb
    return Series(lo, acc, prec)


def dense_invert(s):
    nz = _dense_nonzero(s)
    if not nz:
        raise NotInvertible("series has no determined nonzero coefficient")
    v, lead = nz[0]
    length = s.prec - v
    tail = [(e - v, c) for e, c in nz[1:]]
    b = [Fraction(0)] * length
    b[0] = 1 / lead
    for k in range(1, length):
        b[k] = -sum((c * b[k - e] for e, c in tail if e <= k), Fraction(0)) / lead
    return Series(-v, b, s.prec - 2 * v)


def dense_combine(pairs, den=1):
    """(sum_i c_i * s_i) / den for rational c_i: certified below the
    smallest prec, starting at the smallest min_exp among the nonzero
    weights (capped at that prec)."""
    prec = min(s.prec for _, s in pairs)
    lo = min([prec] + [s.min_exp for c, s in pairs if c])
    acc = [Fraction(0)] * (prec - lo)
    for c, s in pairs:
        if c:
            for e, x in _dense_nonzero(s):
                if e < prec:
                    acc[e - lo] += Fraction(c, den) * x
    return Series(lo, acc, prec)


@st.composite
def oracle_series(draw):
    """Dense series with rational coefficients over denominators 1, 2
    and 3, leading zeros, nonzero terms on a progression (so that
    inversion runs on a coarser step), and the zero series."""
    min_exp = draw(st.integers(-30, 30))
    lead_zeros = draw(st.integers(0, 3))
    length = draw(st.integers(0, 14))
    step = draw(st.sampled_from([1, 2, 3, 8]))
    part = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
    coeffs = [Fraction(0)] * lead_zeros
    for k in range(length):
        coeffs.append(draw(part) if k % step == 0 else Fraction(0))
    return Series(min_exp, coeffs, min_exp + len(coeffs))


def assert_same_series(got, want):
    assert (got.min_exp, got.prec) == (want.min_exp, want.prec)
    assert got.coeffs == want.coeffs
    assert got.to_json_obj() == want.to_json_obj()


@settings(max_examples=300, deadline=None)
@given(oracle_series(), oracle_series())
def test_mul_matches_dense_reference(a, b):
    assert_same_series(a * b, dense_mul(a, b))


@settings(max_examples=300, deadline=None)
@given(oracle_series())
def test_invert_matches_dense_reference(s):
    try:
        want = dense_invert(s)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            s.invert()
        return
    assert_same_series(s.invert(), want)


@settings(max_examples=200, deadline=None)
@given(oracle_series(), oracle_series(), st.sampled_from([0, 1, -1, Fraction(7, 3)]))
def test_linear_operations_match_dense_reference(a, b, c):
    const = Series.monomial(0, c, prec=a.prec)  # the scalar c as a series
    cases = [
        (a + b, [(1, a), (1, b)]),
        (a - b, [(1, a), (-1, b)]),
        (-a, [(-1, a)]),
        (a.scale(c), [(c, a)]),
        (a + c, [(1, a), (1, const)]),
        (a - c, [(1, a), (-1, const)]),
        (c - a, [(-1, a), (1, const)]),
    ]
    for got, pairs in cases:
        assert_same_combination(got, dense_combine(pairs))


def test_storage_is_sparse():
    # a dense store would hold a million slots for each of these
    far = 10**6
    s = S([(0, 1), (far // 2, 3)], far)
    sq = s * s
    assert sq.support() == (0, far // 2)
    assert sq.coefficient(far // 2) == 6
    inv = s.invert()
    assert inv.coefficient(far // 2) == -3
    assert (s + sq).coefficient(0) == 2
