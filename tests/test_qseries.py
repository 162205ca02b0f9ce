"""The exact Laurent-series ring: laws, precision bookkeeping, wire format."""

import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmock.qseries import (
    InsufficientPrecision,
    LatticeError,
    NotInvertible,
    QSeriesError,
    Series,
    _decimal_digits,
    chain,
)


def S(pairs, prec):
    return Series.from_pairs(pairs, prec=prec)


def dense(min_exp, coeffs, prec):
    """The series with ``coeffs[k]`` at q^((min_exp + k)/24), one entry for
    each exponent below ``prec``."""
    coeffs = list(coeffs)
    assert len(coeffs) == prec - min_exp
    return S([(min_exp + k, c) for k, c in enumerate(coeffs)], prec)


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


@pytest.mark.parametrize("coeff, want", [
    (-7, Fraction(-7)),
    (True, Fraction(1)),
    (Fraction(3, 4), Fraction(3, 4)),
    (10**40, Fraction(10**40)),
])
def test_from_pairs_takes_ints_bools_and_fractions(coeff, want):
    s = S([(0, coeff), (24, coeff), (24, 0)], 48)
    assert [s.coefficient(e) for e in s.support()] == [want, want]
    assert s.to_json_obj() == S([(0, want), (24, want)], 48).to_json_obj()


@pytest.mark.parametrize("coeff", [0.5, "1", None])
def test_from_pairs_rejects_non_rationals(coeff):
    with pytest.raises(TypeError, match="rational coefficient"):
        S([(0, 1), (72, coeff)], 48)  # also beyond prec


OFF_LATTICE = [Fraction(1, 2), Fraction(24), 1.5, 24.0, True, "24", None]


@pytest.mark.parametrize("bad", OFF_LATTICE, ids=repr)
def test_public_constructors_reject_a_non_int_exponent(bad):
    for build in (lambda: Series.monomial(bad, 1, prec=24),
                  lambda: S([(0, 1), (bad, 1)], 24),
                  lambda: S([(bad, 1)], -48)):  # also beyond prec
        with pytest.raises(LatticeError) as exc:
            build()
        assert str(exc.value) == f"exponent must be an int of lattice units, got {bad!r}"


@pytest.mark.parametrize("bad", OFF_LATTICE, ids=repr)
def test_public_constructors_reject_a_non_int_prec(bad):
    for build in (lambda: Series.zero(bad), lambda: Series.one(bad),
                  lambda: Series.monomial(0, 1, prec=bad), lambda: S([(0, 1)], bad),
                  lambda: S([], bad)):
        with pytest.raises(LatticeError) as exc:
            build()
        assert str(exc.value) == f"prec must be an int of lattice units, got {bad!r}"


# ---------------------------------------------------------------- ring laws


@st.composite
def small_series(draw):
    min_exp = draw(st.integers(-4, 4)) * 12
    length = draw(st.integers(1, 6))
    coeffs = [
        Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3])))
        for _ in range(length)
    ]
    return dense(min_exp, coeffs, min_exp + length)


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
    assert dense(0, (0,) * 48, 48) == dense(-24, (0,) * 72, 48)
    # a series is its value: equal series write the same wire format
    assert dense(0, (0,) * 48, 48).to_json_obj() == dense(-24, (0,) * 72, 48).to_json_obj()


# ------------------------------------------------------------------ pairing


@st.composite
def sparse_series(draw):
    """A few terms on one residue class, often zero or with a pole, with a
    prec (<= 0 too) drawn relative to the last term."""
    step = draw(st.sampled_from([12, 24, 3]))
    offset = draw(st.sampled_from([0, 0, 3]))
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-3, 4).map(lambda k: k * step + offset),
                st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7])),
            ),
            max_size=6,
        )
    )
    top = max((e for e, _ in terms), default=0)
    return S(terms, top + draw(st.integers(-36, 72)))


@settings(max_examples=300, deadline=None)
@given(sparse_series(), sparse_series())
@example(Series.zero(24), S([(0, 3)], 24))  # a zero series
@example(Series.zero(-24), S([(24, 3)], 48))  # a zero series short of q^0
@example(S([(-24, 2)], 0), S([(24, 5)], 48))  # prec 0: q^0 uncertified
@example(S([(-24, 2), (0, 1)], 24), S([(0, 7), (24, 5)], 48))  # a pole on one side
@example(S([(-48, 2)], 24), S([(24, 5)], 48))  # the pole reaches past the other's prec
@example(S([(-3, 2), (21, 1)], 48), S([(0, 5), (24, 1)], 48))  # disjoint supports
def test_pairing_is_the_constant_term_of_the_product(a, b):
    try:
        want = (a * b).constant_term()
    except InsufficientPrecision as exc:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(InsufficientPrecision) as got:
                x.pairing(y)
            assert got.value.needed == exc.needed == 1
        return
    assert a.pairing(b) == b.pairing(a) == want


def test_pairing_edge_cases():
    pole = S([(-24, 2), (0, 1)], 24)
    tail = S([(0, 7), (24, 5)], 48)
    assert pole.pairing(tail) == 2 * 5 + 1 * 7
    assert S([(-3, 2), (21, 1)], 48).pairing(tail) == 0  # no exponents cancel
    assert Series.zero(24).pairing(tail) == 0
    with pytest.raises(InsufficientPrecision):
        S([(-48, 2)], 24).pairing(S([(24, 5)], 48))  # the product is certified only below q^0


# -------------------------------------------------------------------- chain


@settings(max_examples=200, deadline=None)
@given(sparse_series(), st.integers(0, 6))
@example(S([(-48, 1), (0, 3)], 24), 6)  # a pole, Z0hat-like
@example(S([(3, 2)], 48), 5)  # a monomial off the q-unit lattice
def test_chain_power_equals_pow_int(x, n):
    # power j keeps prec - val, so the chain certifies what pow_int does
    assume(not x.is_zero())
    powers = chain(x.pow_int(0), x, n)
    assert len(powers) == n + 1
    for j, power in enumerate(powers):
        assert power == x.pow_int(j)


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


def test_json_reader_drops_leading_zero_entries():
    obj = {"lattice_den": 24, "min_exp": -2, "prec": 2,
           "coeffs": [["0", "1", "0", "1"], ["0", "1", "0", "1"],
                      ["3", "4", "0", "1"], ["0", "1", "0", "1"]]}
    s = Series.from_json_obj(obj)
    assert s == S([(0, Fraction(3, 4))], 2)
    assert s.to_json_obj()["min_exp"] == 0
    assert s.to_json_obj()["coeffs"] == [["3", "4", "0", "1"], ["0", "1", "0", "1"]]


def _with(obj, path, value):
    """``obj`` with the item at ``path`` (keys and indices) set to ``value``."""
    *head, last = path
    inner = obj
    for key in head:
        inner = inner[key]
    inner[last] = value
    return obj


MALFORMED_WIRE = {
    # name -> (malformed copy of a good wire object, what the message must name)
    "zero-real-denominator": (
        lambda o: _with(o, ("coeffs", 24, 1), "0"), r"entry 24 \(lattice exponent 21\)"),
    "zero-imaginary-denominator": (
        lambda o: _with(o, ("coeffs", 1, 3), "0"), r"entry 1 \(lattice exponent -2\)"),
    "short-entry": (lambda o: _with(o, ("coeffs", 2), ["1", "1", "0"]), r"entry 2 "),
    "non-integer-string": (lambda o: _with(o, ("coeffs", 0, 0), "5/1"), r"entry 0 .*'5/1'"),
    "missing-prec": (lambda o: {k: v for k, v in o.items() if k != "prec"}, r"'prec'"),
    "not-an-object": (lambda o: [o], r"JSON object"),
    "count-mismatch": (lambda o: _with(o, ("prec",), 44), r"count 48 != .* 47"),
    "min-exp-above-prec": (lambda o: _with(o, ("prec",), -4), r"min_exp -3 exceeds prec -4"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WIRE))
def test_json_reader_raises_qseries_error_naming_the_fault(case):
    malformed, names = MALFORMED_WIRE[case]
    good = S([(-3, 5), (21, Fraction(-7, 3))], 45).to_json_obj()
    with pytest.raises(QSeriesError, match=names):
        Series.from_json_obj(malformed(good))


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

LONG_WIRE_VALUES = {
    # name -> (an over-long entry, what the message must say about it)
    "over-the-digit-limit": (  # one digit over the integer-string limit
        "1" + "0" * LIMIT, rf"{LIMIT + 1}-digit integer .*limit of {LIMIT} digits"),
    "long-non-integer": ("x" * 5000, r"'xxx.*\.\.\., not an integer"),
}


@pytest.mark.parametrize("case", sorted(LONG_WIRE_VALUES))
def test_json_reader_quotes_only_a_prefix_of_an_over_long_entry(case):
    value, says = LONG_WIRE_VALUES[case]
    if not LIMIT and case == "over-the-digit-limit":
        pytest.skip("this interpreter has no integer-string limit")
    obj = {"lattice_den": 24, "min_exp": -3, "prec": -2, "coeffs": [[value, "1", "0", "1"]]}
    with pytest.raises(QSeriesError, match=r"entry 0 \(lattice exponent -3\)") as guard:
        Series.from_json_obj(obj)
    message = str(guard.value)
    assert re.search(says, message), message
    assert len(message) < 200


OVER_LONG_COEFFICIENTS = {
    # name -> (a coefficient, the part and digit count the message names)
    "numerator": (10**LIMIT, "numerator", LIMIT + 1),
    "denominator": (Fraction(-1, 10**(LIMIT + 1)), "denominator", LIMIT + 2),
}


@pytest.mark.skipif(not LIMIT, reason="this interpreter has no integer-string limit")
@pytest.mark.parametrize("write", [Series.to_json_obj, str], ids=["to_json_obj", "str"])
@pytest.mark.parametrize("case", sorted(OVER_LONG_COEFFICIENTS))
def test_writers_name_a_coefficient_over_the_digit_limit(write, case):
    coefficient, part, digits = OVER_LONG_COEFFICIENTS[case]
    s = S([(-3, 1), (21, coefficient)], 45)
    with pytest.raises(QSeriesError, match=rf"lattice exponent 21 has a {digits}-digit "
                                           rf"{part}, .*limit of {LIMIT} digits"):
        write(s)


@pytest.mark.skipif(not LIMIT, reason="this interpreter has no integer-string limit")
def test_writers_keep_a_coefficient_at_the_digit_limit():
    at_the_limit = S([(-3, 1), (21, 10**LIMIT - 1)], 45)
    assert Series.from_json_obj(at_the_limit.to_json_obj()) == at_the_limit
    assert str(at_the_limit).startswith("q^(-1/8) + 999")


def test_decimal_digits_counts_without_a_string():
    numbers = [0, 1, -1, 9, 10, -10]
    numbers += [10**k + d for k in range(1, 400, 7) for d in (-1, 0, 1)]
    assert [_decimal_digits(n) for n in numbers] == [len(str(abs(n))) for n in numbers]


# ---------------------------------------------------------- derived min_exp
#
# min_exp is the valuation, or prec for the zero series, so the wire format
# starts at the first nonzero term whatever the operation that made it.

WIRE_START_CASES = {
    # name -> (series, the lattice exponent its wire format starts at)
    "combine-cancels-the-leading-terms": (
        lambda: S([(-24, 1), (0, 2)], 96) - S([(-24, 1), (24, 3)], 96), 0),
    "q-derive-of-a-constant-term": (lambda: S([(0, 5), (24, 1)], 48).q_derive(), 24),
    "truncate-below-the-valuation": (
        lambda: dense(-24, [0] * 24 + [1, 2], 2).truncate(-12), -12),
    "scale-by-zero": (lambda: S([(-24, 1), (0, 2)], 96).scale(0), 96),
    "dense-leading-zeros": (lambda: dense(-24, [0] * 24 + [3], 1).scale(2), 0),
}


@pytest.mark.parametrize("case", sorted(WIRE_START_CASES))
def test_wire_format_starts_at_the_valuation(case):
    build, start = WIRE_START_CASES[case]
    s = build()
    obj = s.to_json_obj()
    assert s.min_exp == obj["min_exp"] == start
    assert s.min_exp == (s.prec if s.is_zero() else s.val())
    assert len(obj["coeffs"]) == s.prec - start
    if not s.is_zero():
        assert obj["coeffs"][0] != ["0", "1", "0", "1"]
    assert Series.from_json_obj(obj).to_json_obj() == obj


def test_min_exp_is_read_only_and_not_stored():
    s = S([(-24, 1)], 24)
    assert "min_exp" not in Series.__slots__
    with pytest.raises(AttributeError):
        s.min_exp = -48


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
    return dense(lo, acc, prec)


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
    return dense(-v, b, s.prec - 2 * v)


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
    return dense(lo, acc, prec)


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
    return dense(min_exp, coeffs, min_exp + len(coeffs))


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


# ---------------------------------------------------------------- division


def _pattern_series(lo, step, prec, dens=(1,)):
    """A series with a nonzero term at every lo + j*step below prec, the
    coefficients cycling through signs and the given denominators."""
    pairs = [(e, Fraction((-1) ** j * (j % 5 + 1), dens[j % len(dens)]))
             for j, e in enumerate(range(lo, prec, step))]
    return Series.from_pairs(pairs, prec=prec)


DIVISION_CASES = {
    # name -> prec (lattice units) -> (f, g)
    "zero-f": lambda p: (Series.zero(p), _pattern_series(0, 24, p + 24)),
    "g-positive-val": lambda p: (
        _pattern_series(-3, 24, p), _pattern_series(3, 48, p + 48)),
    "g-negative-val": lambda p: (
        _pattern_series(0, 12, p), _pattern_series(-48, 24, p - 24)),
    "non-unit-negative-lead": lambda p: (
        _pattern_series(24, 24, p),
        Series.from_pairs([(-24, Fraction(-2, 3)), (0, 5), (72, Fraction(1, 4))], prec=p)),
    "denominators": lambda p: (
        _pattern_series(-6, 6, p, dens=(2, 3, 5)), _pattern_series(0, 24, p, dens=(7, 1))),
    "f-off-g-progression": lambda p: (
        _pattern_series(3, 24, p) + Series.monomial(0, 1, prec=p),
        _pattern_series(-24, 192, p + 24)),
}


@pytest.mark.parametrize("case", sorted(DIVISION_CASES))
def test_division_equals_product_with_inverse(case):
    for order in range(65):
        f, g = DIVISION_CASES[case](24 * order)
        if g.is_zero():
            with pytest.raises(NotInvertible):
                f / g
            continue
        assert_same_series(f / g, f * g.invert())


@settings(max_examples=300, deadline=None)
@given(oracle_series(), oracle_series())
def test_division_matches_dense_reference(f, g):
    try:
        want = dense_mul(f, dense_invert(g))
    except NotInvertible:
        with pytest.raises(NotInvertible):
            f / g
        return
    assert_same_series(f / g, want)


@settings(max_examples=200, deadline=None)
@given(oracle_series())
def test_invert_is_one_over_the_series(g):
    if g.is_zero():
        with pytest.raises(NotInvertible):
            g.invert()
        return
    quotient = Series.one(g.prec - g.val()) / g
    assert_same_series(g.invert(), quotient)
    assert (g.invert().min_exp, g.invert().prec) == (-g.val(), g.prec - 2 * g.val())


def test_division_rejects_a_zero_divisor():
    f = S([(0, 1), (24, 2)], 96)
    for zero in (Series.zero(96), S([(0, 0), (24, 0)], 96)):
        with pytest.raises(NotInvertible):
            f / zero
        with pytest.raises(NotInvertible):
            Series.zero(96) / zero


def test_division_by_a_scalar():
    f = S([(-3, Fraction(1, 2)), (21, Fraction(-7, 3))], 45)
    assert_same_combination(f / 3, f.scale(Fraction(1, 3)))
    assert_same_combination(f / Fraction(-2, 5), f.scale(Fraction(-5, 2)))
    with pytest.raises(ZeroDivisionError):
        f / 0
