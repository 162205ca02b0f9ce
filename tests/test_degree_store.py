"""The degree stores behind the route vectors, and route A's theta family.

``route_vectors`` keeps, per route, every vector of degree <= D paired
from one pair of families built for D, the largest degree asked for so
far.  A smaller degree is served from it; only a deeper request rebuilds.
Route A has one store per mock it evaluates, H/12 and Q+(tau/8), and
both pair against the one mock-free ``theta_family``; the kernel check
reads their difference and builds no store of its own.  The counts below
are of the unmemoised builders, so each count is one build.
"""

from collections import defaultdict

import pytest

from qmock import uplane, verify
from qmock.qseries import degree_memo
from qmock.uplane import ROUTE_FINAL, ROUTE_H12, ROUTE_QPLUS

#: test id -> route label: route A on H/12, route B, route A on Q+(tau/8)
ROUTES = {"A": ROUTE_H12, "B": ROUTE_FINAL, "Qplus": ROUTE_QPLUS}
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


def vector(route, t):
    return uplane.route_vectors(route, t)[t]


def fresh(route, t, monkeypatch):
    """Route ``route``'s vector of degree t from families built for t
    alone, with no store and no theta family served."""
    with monkeypatch.context() as patch:
        patch.setattr(uplane, "theta_family", RAW["theta_family"])
        return RAW["route_vectors"](route, t)[t]


def test_generating_function_builds_each_basis_once(builds):
    uplane.generating_function(8)
    # degree 8 needs thetas to q-order 3, which certify a family of depth 9
    assert builds == {ROUTE_H12: [8], ROUTE_FINAL: [8], "theta": [9]}


@pytest.mark.parametrize("store", sorted(ROUTES))
def test_a_smaller_degree_is_served_without_a_rebuild(store, builds, monkeypatch):
    route = ROUTES[store]
    vector(route, 8)
    served = [vector(route, t) for t in range(8, -1, -1)]
    assert builds[route] == [8]
    for t, got in zip(range(8, -1, -1), served):
        assert len(got) == t + 1
        assert got == fresh(route, t, monkeypatch), t


@pytest.mark.parametrize("store", sorted(ROUTES))
def test_a_deeper_degree_rebuilds_once_and_replaces_the_store(store, builds, monkeypatch):
    route = ROUTES[store]
    vector(route, 4)
    vector(route, 2)
    assert builds[route] == [4]
    deep = vector(route, 7)
    assert builds[route] == [4, 7]
    assert [vector(route, t) for t in (6, 4, 7)] == [
        fresh(route, 6, monkeypatch), fresh(route, 4, monkeypatch), deep
    ]
    assert builds[route] == [4, 7]
    vector(route, 8)
    assert builds[route] == [4, 7, 8]


def test_unmemoised_builds_afresh_for_every_call(unmemoised, builds):
    vector(ROUTE_H12, 5)
    vector(ROUTE_H12, 5)
    vector(ROUTE_FINAL, 3)
    assert builds == {ROUTE_H12: [5, 5], ROUTE_FINAL: [3], "theta": [5, 5]}


def test_paper_table_builds_each_store_once_at_its_deepest_degree(builds):
    verify.run_suite("paper-table")
    # the stores are asked for at the battery's degree, the kernel suite's 9
    assert builds == {ROUTE_H12: [9], ROUTE_QPLUS: [9], "theta": [9]}


def test_kernel_suite_builds_each_store_once_at_its_deepest_degree(builds):
    verify.run_suite("kernel")
    assert builds == {ROUTE_H12: [9], ROUTE_QPLUS: [9], "theta": [9]}


def test_one_theta_family_serves_the_kernel_suite_and_then_the_paper_table(builds):
    verify.run_suite("kernel")
    verify.run_suite("paper-table")
    assert builds["theta"] == [9]
    assert builds[ROUTE_QPLUS] == [9] and builds[ROUTE_H12] == [9]
