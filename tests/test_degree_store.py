"""The degree stores behind the route vectors, and route A's theta family.

``route_vectors`` keeps, per route, every vector of degree <= D paired
from one pair of families built for D, the largest degree asked for so
far.  A smaller degree is served from it; only a deeper request rebuilds.
Route A has one store per named mock (H/12, Q+(tau/8) and the kernel
Q+(tau/8) - H/12), and all three pair against the one mock-free
``theta_family``.  The counts below are of the unmemoised builders, so
each count is one build.
"""

from collections import defaultdict

import pytest

from qmock import uplane, verify
from qmock.qseries import degree_memo

VECTORS = {
    "A": uplane.vector_a,
    "B": uplane.vector_b,
    "Qplus": uplane.vector_qplus,
    "kernel": uplane.kernel_vector,
}
RAW = {name: getattr(uplane, name).__wrapped__ for name in ("route_vectors", "theta_family")}


@pytest.fixture
def builds(monkeypatch):
    """The degree of every store build, per route, and of every theta
    family build, under "theta".  Every store starts empty; under
    ``unmemoised`` the builders stay unmemoised."""
    seen = defaultdict(list)

    def route_vectors(route, degree):
        seen[route].append(degree)
        return RAW["route_vectors"](route, degree)

    def theta_family(degree):
        seen["theta"].append(degree)
        return RAW["theta_family"](degree)

    memo = degree_memo if hasattr(uplane.route_vectors, "__wrapped__") else (lambda fn: fn)
    monkeypatch.setattr(uplane, "route_vectors", memo(route_vectors))
    monkeypatch.setattr(uplane, "theta_family", memo(theta_family))
    return seen


def fresh(route, t, monkeypatch):
    """Route ``route``'s vector of degree t from families built for t
    alone, with no store and no theta family served."""
    with monkeypatch.context() as patch:
        patch.setattr(uplane, "theta_family", RAW["theta_family"])
        return RAW["route_vectors"](route, t)[t]


def test_generating_function_builds_each_basis_once(builds):
    uplane.generating_function(8)
    # degree 8 needs thetas to q-order 3, which certify a family of depth 9
    assert builds == {"A": [8], "B": [8], "theta": [9]}


@pytest.mark.parametrize("route", sorted(VECTORS))
def test_a_smaller_degree_is_served_without_a_rebuild(route, builds, monkeypatch):
    vector = VECTORS[route]
    vector(8)
    served = [vector(t) for t in range(8, -1, -1)]
    assert builds[route] == [8]
    for t, got in zip(range(8, -1, -1), served):
        assert len(got) == t + 1
        assert got == fresh(route, t, monkeypatch), t


@pytest.mark.parametrize("route", sorted(VECTORS))
def test_a_deeper_degree_rebuilds_once_and_replaces_the_store(route, builds, monkeypatch):
    vector = VECTORS[route]
    vector(4)
    vector(2)
    assert builds[route] == [4]
    deep = vector(7)
    assert builds[route] == [4, 7]
    assert [vector(t) for t in (6, 4, 7)] == [
        fresh(route, 6, monkeypatch), fresh(route, 4, monkeypatch), deep
    ]
    assert builds[route] == [4, 7]
    vector(8)
    assert builds[route] == [4, 7, 8]


def test_unmemoised_builds_afresh_for_every_call(unmemoised, builds):
    uplane.vector_a(5)
    uplane.vector_a(5)
    uplane.vector_b(3)
    assert builds == {"A": [5, 5], "B": [3], "theta": [5, 5]}


def test_paper_table_builds_each_store_once_at_its_deepest_degree(builds):
    verify.run_suite("paper-table")
    assert builds == {"A": [4], "Qplus": [4], "theta": [5]}


def test_kernel_suite_builds_each_store_once_at_its_deepest_degree(builds):
    verify.run_suite("kernel")
    assert builds == {"kernel": [8], "A": [9], "Qplus": [9], "theta": [9]}


def test_one_theta_family_serves_the_kernel_suite_and_then_the_paper_table(builds):
    verify.run_suite("kernel")
    verify.run_suite("paper-table")
    assert builds["theta"] == [9]
    assert builds["Qplus"] == [9] and builds["A"] == [9]
