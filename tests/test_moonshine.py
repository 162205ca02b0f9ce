"""M24 dimension decompositions: witnesses, counts, determinism."""

from collections import defaultdict
from itertools import combinations, product

import pytest

from qmock import moonshine
from qmock.mock import a_coefficients
from qmock.moonshine import (
    A6_PARTS,
    A7_PARTS,
    M24_DIMENSIONS,
    decompose_bounded,
    decompose_distinct,
)


def test_dimension_list_shape():
    assert len(M24_DIMENSIONS) == 26
    assert list(M24_DIMENSIONS) == sorted(M24_DIMENSIONS)
    assert M24_DIMENSIONS[0] == 1 and M24_DIMENSIONS[-1] == 10395


def test_a6_witness():
    w = decompose_distinct(13915)
    assert w is not None
    assert w.dims() == A6_PARTS == (3520, 10395)
    assert w.total() == 13915


def test_a7_witness():
    w = decompose_distinct(30843)
    assert w is not None
    assert w.dims() == A7_PARTS
    assert w.total() == 30843


def test_small_targets():
    assert decompose_distinct(2) is None
    assert decompose_distinct(1).dims() == (1,)
    assert decompose_distinct(0).dims() == ()


def brute_force_lex_smallest(target, dims):
    best = None
    for r in range(len(dims) + 1):
        for combo in combinations(range(len(dims)), r):
            if sum(dims[i] for i in combo) == target:
                vec = tuple(1 if i in combo else 0 for i in range(len(dims)))
                if best is None or vec < best:
                    best = vec
    return best


@pytest.fixture
def over(monkeypatch):
    """Search over another dimension tuple: the module's list is swapped
    for the test alone."""
    return lambda dims: monkeypatch.setattr(moonshine, "M24_DIMENSIONS", tuple(dims))


def assert_lex_smallest(over, dims, targets):
    over(dims)
    for target in targets:
        got = decompose_distinct(target)
        best = brute_force_lex_smallest(target, dims)
        if best is None:
            assert got is None
        else:
            assert got is not None and got.multiplicities == best


def test_witness_is_lexicographically_smallest(over):
    # brute force over a 12-dimension prefix, where 2^12 subsets are cheap
    assert_lex_smallest(over, M24_DIMENSIONS[:12], (24, 276, 1035, 700))


def test_witness_is_lexicographically_smallest_unequal_halves(over):
    # a 13-dimension prefix: an odd number of slots
    assert_lex_smallest(over, M24_DIMENSIONS[:13], (24, 276, 1035, 700, 2070, 4000, 5000))


def test_empty_dimension_tuple(over):
    over(())
    assert decompose_distinct(0).multiplicities == ()
    assert decompose_distinct(1) is None


def _first_bounded_witness(target):
    _, witnesses = decompose_bounded(target, 1, max_witnesses=1)
    return witnesses[0].multiplicities if witnesses else ()


@pytest.mark.parametrize(
    "targets",
    [
        [a for n, a in sorted(a_coefficients(10).items()) if 1 <= n <= 10],
        [sum(M24_DIMENSIONS) + d for d in (-1, 0, 1)],
        list(range(0, 1201, 37)),
    ],
    ids=["A1-A10", "total-dimension", "stride-0-1200"],
)
def test_distinct_matches_first_bounded_witness(targets):
    # the one-witness search against the first of the cap-1 witnesses,
    # which come in lex order: both give the lex-smallest subset
    for target in targets:
        got = decompose_distinct(target)
        assert (got.multiplicities if got else ()) == _first_bounded_witness(target)


def test_bounded_count_and_witnesses():
    count, witnesses = decompose_bounded(24, 1)
    assert count == 1
    assert witnesses[0].dims() == (1, 23)
    count0, w0 = decompose_bounded(0, 3)
    assert count0 == 1 and w0[0].multiplicities == (0,) * 26
    count45, w45 = decompose_bounded(45, 1, max_witnesses=8)
    assert count45 == 2  # the two distinct 45-dimensional slots
    assert all(w.total() == 45 for w in w45)


def test_bounded_cap_matters():
    c1, _ = decompose_bounded(2, 1)
    c2, w = decompose_bounded(2, 2)
    assert c1 == 0 and c2 == 1
    assert w[0].multiplicities[0] == 2  # 2 = 1 + 1


def test_distinct_iff_bounded_cap_one():
    for target in (24, 45, 2, 13915, 97):
        d = decompose_distinct(target)
        c, _ = decompose_bounded(target, 1, max_witnesses=0)
        assert (d is not None) == (c >= 1)


def test_witnesses_in_lex_order_and_valid():
    count, witnesses = decompose_bounded(1058, 1, max_witnesses=6)
    assert count >= len(witnesses) >= 1
    vecs = [w.multiplicities for w in witnesses]
    assert vecs == sorted(vecs)
    assert all(w.total() == 1058 for w in witnesses)


def brute_force_bounded(dims, cap):
    """target -> every multiplicity vector with entries <= cap summing to
    it, in lex order (``product`` yields lex order)."""
    found = defaultdict(list)
    for vec in product(range(cap + 1), repeat=len(dims)):
        found[sum(t * d for t, d in zip(vec, dims))].append(vec)
    return found


@pytest.mark.parametrize("width, cap", [(10, 0), (10, 1), (10, 2), (9, 2), (8, 3)])
def test_bounded_matches_exhaustive_enumeration(over, width, cap):
    dims = M24_DIMENSIONS[:width]
    found = brute_force_bounded(dims, cap)
    over(dims)
    top = cap * sum(dims)
    for target in [-1, 0, 1, 2, top - 1, top, top + 1, *range(3, top, 11)]:
        count, witnesses = decompose_bounded(target, cap, max_witnesses=3)
        assert count == len(found[target]), target
        assert [w.multiplicities for w in witnesses] == found[target][:3], target


@pytest.mark.parametrize("n, counts", [
    (4, (54, 340)),
    (5, (123, 7682)),
    (6, (3025, 732395)),
    (7, (1927, 19896507)),
    (8, (0, 36370423)),
])
def test_bounded_counts_of_a4_to_a8(n, counts):
    target = a_coefficients(8)[n]
    assert tuple(decompose_bounded(target, cap, max_witnesses=0)[0] for cap in (1, 2)) == counts
