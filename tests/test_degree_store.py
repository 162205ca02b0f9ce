"""The degree store behind ``vector_a`` and ``vector_b``.

``route_vectors`` keeps, per route, every vector of degree <= D paired
from one basis built for D, the largest degree asked for so far.  A
smaller degree is served from it; only a deeper request rebuilds.  The
counts below are of the basis builders, ``basis_a`` and ``basis_b``.
"""

import pytest

from qmock import uplane
from qmock.qseries import degree_memo

ROUTES = {"A": (uplane.vector_a, "basis_a"), "B": (uplane.vector_b, "basis_b")}
BASES = {route: getattr(uplane, name) for route, (_, name) in ROUTES.items()}


@pytest.fixture
def builds(monkeypatch):
    """The degree of every basis build, per route."""
    seen = {route: [] for route in ROUTES}
    for route, (_, name) in ROUTES.items():
        def counting(degree, _fn=getattr(uplane, name), _seen=seen[route]):
            _seen.append(degree)
            return _fn(degree)

        monkeypatch.setattr(uplane, name, counting)
    return seen


@pytest.fixture
def empty_store(monkeypatch):
    monkeypatch.setattr(
        uplane, "route_vectors", degree_memo(uplane.route_vectors.__wrapped__)
    )


def fresh(route, t):
    """Route ``route``'s vector of degree t from a basis built for t alone."""
    powers, rungs = BASES[route](t)
    return uplane._constant_terms(powers, rungs, t)


def test_generating_function_builds_each_basis_once(empty_store, builds):
    uplane.generating_function(8)
    assert builds == {"A": [8], "B": [8]}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_a_smaller_degree_is_served_without_a_rebuild(route, empty_store, builds):
    vector = ROUTES[route][0]
    vector(8)
    served = [vector(t) for t in range(8, -1, -1)]
    assert builds[route] == [8]
    for t, got in zip(range(8, -1, -1), served):
        assert len(got) == t + 1
        assert got == fresh(route, t), t


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_a_deeper_degree_rebuilds_once_and_replaces_the_store(route, empty_store, builds):
    vector = ROUTES[route][0]
    vector(4)
    vector(2)
    assert builds[route] == [4]
    deep = vector(7)
    assert builds[route] == [4, 7]
    assert [vector(t) for t in (6, 4, 7)] == [fresh(route, 6), fresh(route, 4), deep]
    assert builds[route] == [4, 7]
    vector(8)
    assert builds[route] == [4, 7, 8]


def test_unmemoised_builds_afresh_for_every_call(unmemoised, builds):
    uplane.vector_a(5)
    uplane.vector_a(5)
    uplane.vector_b(3)
    assert builds == {"A": [5, 5], "B": [3]}
