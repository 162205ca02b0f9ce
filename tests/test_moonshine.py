"""M24 dimension decompositions: witnesses, counts, determinism."""

from itertools import combinations

from qmock.moonshine import (
    A6_PARTS,
    A7_PARTS,
    M24_DIMENSIONS,
    decompose_bounded,
    decompose_distinct,
    report_json_obj,
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


def test_witness_is_lexicographically_smallest():
    # brute force over a 12-dimension prefix, where 2^12 subsets are cheap
    dims = M24_DIMENSIONS[:12]
    for target in (24, 276, 1035, 700):
        got = decompose_distinct(target, dims)
        best = None
        for r in range(len(dims) + 1):
            for combo in combinations(range(len(dims)), r):
                if sum(dims[i] for i in combo) == target:
                    vec = tuple(1 if i in combo else 0 for i in range(len(dims)))
                    if best is None or vec < best:
                        best = vec
        if best is None:
            assert got is None
        else:
            assert got is not None and got.multiplicities == best


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


def test_count_is_order_independent():
    shuffled = tuple(reversed(M24_DIMENSIONS))
    for target in (24, 1035, 4000):
        a, _ = decompose_bounded(target, 2, max_witnesses=0)
        b, _ = decompose_bounded(target, 2, max_witnesses=0, dimensions=shuffled)
        assert a == b


def test_witnesses_in_lex_order_and_valid():
    count, witnesses = decompose_bounded(1058, 1, max_witnesses=6)
    assert count >= len(witnesses) >= 1
    vecs = [w.multiplicities for w in witnesses]
    assert vecs == sorted(vecs)
    assert all(w.total() == 1058 for w in witnesses)


def test_report_json_schema():
    obj = report_json_obj(13915, distinct=True, cap=1, max_witnesses=2)
    assert set(obj) == {"target", "distinct_witness", "bounded_count", "witnesses"}
    assert obj["target"] == 13915
    assert obj["distinct_witness"] == [3520, 10395]
    assert isinstance(obj["bounded_count"], str) and int(obj["bounded_count"]) >= 1
    assert all(len(w) == 26 for w in obj["witnesses"])


def test_report_json_absent_fields_are_null():
    obj = report_json_obj(7, distinct=False)
    assert obj["distinct_witness"] is None
    assert obj["bounded_count"] is None
