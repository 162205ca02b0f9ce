"""The immutable records: their repr, hashing, validation and normalisation."""

from fractions import Fraction

import pytest

from qmock.forms import V_HALF, EtaQuotientSpec, HalfPeriodPoint, PhaseError
from qmock.moonshine import DecompositionWitness
from qmock.uplane import ROUTE_FINAL, InvariantRecord, Z0Polynomial
from qmock.verify import CheckResult

RECORDS = {
    "EtaQuotientSpec": (EtaQuotientSpec(((4, 8), (8, -7))),
                        "EtaQuotientSpec(factors=((4, 8), (8, -7)))"),
    "HalfPeriodPoint": (HalfPeriodPoint(Fraction(1, 2), 0),
                        "HalfPeriodPoint(r=Fraction(1, 2), s=Fraction(0, 1))"),
    "DecompositionWitness": (DecompositionWitness((1, 0, 2)),
                             "DecompositionWitness(multiplicities=(1, 0, 2))"),
    "InvariantRecord": (InvariantRecord(m=0, n=0, value=Fraction(-1, 1), route=ROUTE_FINAL),
                        "InvariantRecord(m=0, n=0, value=Fraction(-1, 1), route='FinalFormula')"),
    "Z0Polynomial": (Z0Polynomial((Fraction(1, 2), 0)),
                     "Z0Polynomial(coefficients=(Fraction(1, 2), 0))"),
    "CheckResult": (CheckResult("kernel-vanishing", True, "ok"),
                    "CheckResult(name='kernel-vanishing', passed=True, detail='ok')"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(name):
    record, text = RECORDS[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record, text = RECORDS[name]
    field = text[len(name) + 1:text.index("=")]  # the first field
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_half_period_points_hash_equal():
    a = HalfPeriodPoint(Fraction(1, 2), Fraction(0))
    b = HalfPeriodPoint("1/2", 0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, HalfPeriodPoint(0, Fraction(1, 2))}) == 2


def test_half_period_point_fields_are_fractions():
    v = HalfPeriodPoint(1, "-1/2")
    assert type(v.r) is Fraction and type(v.s) is Fraction
    assert (v.r2, v.s2) == (2, -1)
    assert v.is_lattice_point() is False


def test_make_and_replace_validate_a_point():
    with pytest.raises(PhaseError):
        HalfPeriodPoint._make((Fraction(1, 3), 0))
    with pytest.raises(PhaseError):
        V_HALF._replace(r=Fraction(1, 3))
    v = V_HALF._replace(s="-1/2")
    assert v == HalfPeriodPoint(Fraction(1, 2), Fraction(-1, 2)) and type(v.s) is Fraction


def test_make_validates_an_eta_quotient_spec():
    with pytest.raises(ValueError, match="multiplier must be positive"):
        EtaQuotientSpec._make([((0, 1),)])
    assert EtaQuotientSpec._make([[(4.0, 8)]]).factors == ((4, 8),)


@pytest.mark.parametrize("multiplier", [0, -1])
def test_eta_multiplier_below_one_is_rejected(multiplier):
    with pytest.raises(ValueError, match="multiplier must be positive"):
        EtaQuotientSpec([(multiplier, 1)])


def test_eta_factors_are_normalised_to_int_pairs():
    spec = EtaQuotientSpec([[4.0, Fraction(8)], (True, -1)])
    assert spec.factors == ((4, 8), (1, -1))
    assert all(type(x) is int for pair in spec.factors for x in pair)
    assert spec == EtaQuotientSpec(((4, 8), (1, -1)))
    assert spec.prefactor_exp24() == 31
