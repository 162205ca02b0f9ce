"""One printer for signed sums: ``Series.__str__`` and ``uplane.format_z``
against the hand-rolled printers they replaced, kept here as references."""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmock.qseries import LATTICE_DEN, Series, signed_sum
from qmock.uplane import ROUTE_FINAL, InvariantRecord, format_z


def reference_series_str(series):
    """The body of ``Series.__str__`` before ``signed_sum``, read through the
    public accessors."""
    parts = []
    for e in series.support():
        cs = str(series.coefficient(e))
        exp = Fraction(e, LATTICE_DEN)
        if exp == 0:
            mono = ""
        elif exp == 1:
            mono = "q"
        elif exp.denominator == 1:
            mono = f"q^{exp}"
        else:
            mono = f"q^({exp})"
        if mono:
            term = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
        else:
            term = cs
        parts.append(term)
    tail = f"O(q^({Fraction(series.prec, LATTICE_DEN)}))"
    if not parts:
        return tail
    joined = parts[0]
    for p in parts[1:]:
        joined += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return f"{joined} + {tail}"


def reference_format_z(records):
    """``format_z`` before ``signed_sum``."""
    terms = ""
    for rec in records:
        c = rec.value / (math.factorial(rec.m) * math.factorial(2 * rec.n))
        if not c:
            continue
        factors = []
        if rec.m == 1:
            factors.append("p")
        elif rec.m > 1:
            factors.append(f"p^{rec.m}")
        if rec.n:
            factors.append(f"S^{2 * rec.n}")
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        terms += (" - " if c < 0 else " + ") + "*".join(factors)
    if not terms:
        return "Z(p,S) = 0"
    return "Z(p,S) = " + ("-" if terms[1] == "-" else "") + terms[3:]


coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.sampled_from([1, 2, 3, 7, 10**20])),
)


@st.composite
def series(draw):
    """Terms at negative, zero, unit and fractional exponents, often with a
    unit coefficient, the zero series among them, prec <= 0 too."""
    pairs = draw(st.lists(st.tuples(st.integers(-100, 100), coefficients), max_size=8))
    return Series.from_pairs(pairs, prec=draw(st.integers(-60, 120)))


@settings(max_examples=400, deadline=None)
@given(series())
@example(Series.zero(0))
@example(Series.zero(-7))
@example(Series.from_pairs([(0, -1), (24, 1), (-24, -1), (12, Fraction(-1, 2))], prec=48))
def test_series_str_matches_reference(s):
    assert str(s) == reference_series_str(s)


def record(m, n, c):
    """The record whose Z(p,S) coefficient is ``c``."""
    return InvariantRecord(m, n, c * math.factorial(m) * math.factorial(2 * n), ROUTE_FINAL)


records = st.lists(
    st.builds(record, st.integers(0, 6), st.integers(0, 4), coefficients), max_size=6
)


@settings(max_examples=400, deadline=None)
@given(records)
@example([])
@example([record(0, 0, Fraction(0)), record(2, 1, Fraction(0))])  # all zero
@example([record(0, 1, Fraction(-3, 16)), record(2, 0, Fraction(1))])  # leading negative
@example([record(0, 0, Fraction(-1)), record(1, 1, Fraction(-1))])  # m = 1, unit
@example([record(1, 0, Fraction(1)), record(3, 0, Fraction(5, 2))])  # n = 0
def test_format_z_matches_reference(recs):
    assert format_z(recs) == reference_format_z(recs)


def test_signed_sum_rules():
    assert signed_sum([]) == ""
    assert signed_sum([(Fraction(-1), [("p", 0), ("S", 0)])]) == "-1"
    assert signed_sum([(Fraction(-1), [("p", 1), ("S", 2)]),
                       (Fraction(3, 2), [("q", Fraction(-1, 8))])]) == "-p*S^2 + 3/2*q^(-1/8)"
