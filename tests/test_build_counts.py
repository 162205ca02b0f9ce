"""Each ``verify`` suite builds each series it reads once, at the deepest
order (or depth) it asks for, and serves the rest from the memo.  Across
suites, every memoised series is built once, whichever suite runs first.

Every memoised builder of ``forms``, ``mock`` and ``uplane``, found as
tests/test_memo.py finds them, is replaced, in every qmock module that
binds it, by a fresh memo of the same kind around a counting copy of the
unmemoised body, so the memo starts empty and each count is one build.
A call counter in front of the memo counts its hits too: every memo
serves at least one.
"""

import inspect
import random
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import permutations

import pytest

from qmock import cli, forms, mock, uplane, verify
from qmock.brackets import bracket_hat
from qmock.forms import V_HALF, V_ONE_PLUS_TAU_HALF, V_TAU_HALF
from qmock.qseries import degree_memo, order_memo, q_order

#: the memo kind of a builder, by the least size its memo serves
MEMO_KIND = {1: order_memo, 0: degree_memo}

#: (module, name) -> the memo it sits on
COUNTED = {
    (module, name): MEMO_KIND[inspect.getclosurevars(value).nonlocals["least"]]
    for module in (forms, mock, uplane)
    for name, value in vars(module).items()
    if hasattr(value, "__wrapped__") and value.__module__ == module.__name__
}

#: (module, name) -> the unmemoised body of that builder
RAW = {(module, name): getattr(module, name).__wrapped__ for module, name in COUNTED}


def rebind(monkeypatch, old, new):
    """Replace ``old`` by ``new`` in every qmock module that binds it."""
    for m in [m for name, m in sys.modules.items() if name.split(".")[0] == "qmock"]:
        for attr, value in list(vars(m).items()):
            if value is old:
                monkeypatch.setattr(m, attr, new)


def counting(monkeypatch):
    """name -> the arguments of every build, and name -> the arguments of
    every call, of each builder, behind a fresh memo."""
    builds, calls = defaultdict(list), defaultdict(list)
    for (module, name), memo in COUNTED.items():

        def build(*args, raw=RAW[module, name], name=name):
            builds[name].append(args)
            return raw(*args)

        def call(*args, memoised=memo(build), name=name):
            calls[name].append(args)
            return memoised(*args)

        rebind(monkeypatch, getattr(module, name), call)
    return builds, calls


@pytest.fixture
def builds(monkeypatch):
    """name -> the arguments of every build of that builder."""
    return counting(monkeypatch)[0]


def rebuilt(builds):
    """(name, key) -> the sizes it was built at, for each key built twice."""
    return {
        (name, key): [args[-1] for args in calls if args[:-1] == key]
        for name, calls in builds.items()
        for key, count in Counter(args[:-1] for args in calls).items()
        if count > 1
    }


def test_jacobi_builds_q_plus_the_h_k_family_and_the_theta_quotient_once(builds):
    verify.run_suite("jacobi")
    # H_0..H_4 to order 32 read Q+ to 32 + (48 * 4 + 24) / 24 = 41
    assert builds["q_plus"] == [(41,)]
    assert builds["h_k_family"] == [(32, 4)]
    assert builds["theta_quotient_factor"] == [(128,)]


def test_genus_builds_each_mu_and_h_once_at_the_deepest_order(builds, monkeypatch):
    mu_calls = []

    def mu(v, order, raw=mock.mu_half_period):
        mu_calls.append((v, order))
        return raw(v, order)

    monkeypatch.setattr(mock, "mu_half_period", mu)
    verify.run_suite("genus")
    # z = tau/2 and (1+tau)/2 read mu and H at order 65, z = 1/2 at 64; H comes
    # from Eguchi-Hikami, and mu, not memoised, is built once by the genus
    # check that reads it
    assert builds["h_series"] == [(65,)]
    assert mu_calls == [(V_HALF, 64), (V_TAU_HALF, 65), (V_ONE_PLUS_TAU_HALF, 65)]


def direct_h_k(k, order):
    """H_k on its own, as the top rung of a ladder built for k alone from
    unmemoised Q+ and H."""
    prec = 24 * order
    need = prec + 48 * k + 24
    qp = RAW[mock, "q_plus"](q_order(need))
    h8 = RAW[mock, "h_series"](q_order(Fraction(need, 8))).rescale_exponents(8, 1)
    return bracket_hat(qp - h8.scale(Fraction(1, 12)), k).truncate(prec)


@pytest.mark.parametrize("k_max", [0, 2, 4])
def test_a_smaller_k_is_served_from_the_deepest_ladder(k_max, builds):
    served = [uplane.h_k_series(k, 8) for k in [k_max, *range(k_max + 1)]]
    assert builds["h_k_family"] == [(8, k_max)]
    for k, hk in enumerate(served[1:]):
        assert hk.prec == 24 * 8
        assert hk == direct_h_k(k, 8), k


#: the suites of the benchmark's ``verify`` workload, in ``verify.SUITES`` order
WORKLOAD = ("paper-table", "kernel", "jacobi", "genus", "moonshine")
SUITE_ORDERS = [WORKLOAD, WORKLOAD[::-1]] + random.Random(0).sample(
    [p for p in permutations(WORKLOAD) if p not in (WORKLOAD, WORKLOAD[::-1])], 6
)

@pytest.mark.parametrize("order", SUITE_ORDERS + [("all",)], ids=lambda order: ",".join(order))
def test_the_verify_workload_builds_each_shared_series_once(order, builds):
    for suite in order:
        verify.run_suite(suite)
    assert rebuilt(builds) == {}


@pytest.mark.parametrize("degree", [0, 1, 4, 8, 16])
def test_generating_function_builds_each_series_once(degree, builds):
    # route B reads Theta2, Theta3 and eta(8tau) deepest in its bracket rungs
    uplane.generating_function(degree)
    assert rebuilt(builds) == {}


def test_routes_a_and_b_ask_for_h_at_one_order():
    # both routes read the H ladder at mock_order_for(D, 0); route B needs
    # H(8tau) to 48D + 73 lattice units, and that order is the least that covers it
    for degree in range(2001):
        assert uplane.mock_order_for(degree, 0) == q_order(Fraction(48 * degree + 73, 8))


@pytest.mark.parametrize("degree", [0, 1, 4, 8, 16])
def test_generating_function_builds_the_h_ladder_once_for_both_routes(degree, monkeypatch):
    builds, calls = counting(monkeypatch)
    uplane.generating_function(degree)
    assert builds["h_ladder"] == [(uplane.mock_order_for(degree, 0), degree)]
    assert len(calls["h_ladder"]) == 2


def test_the_z0hat_reduction_builds_its_power_chain_once(monkeypatch):
    # H_0..H_4 to order 32 have poles of degree 1..5; z0_reduce and evaluate
    # read each from the one chain built for the deepest
    builds, calls = counting(monkeypatch)
    verify.run_suite("jacobi")
    assert builds["_z0_powers"] == [(24 * 32, 5)]
    assert len(calls["_z0_powers"]) == 10


def test_every_memo_serves_a_hit_on_a_workload(monkeypatch):
    # each workload behind fresh memos, as the benchmark runs each in its own process
    workloads = [lambda: cli.main(["table", "--max", "8"]),
                 lambda: [verify.run_suite(suite) for suite in WORKLOAD]]
    served = set()
    for workload in workloads:
        builds, calls = counting(monkeypatch)
        workload()
        served |= {name for name in calls if len(calls[name]) > len(builds[name])}
    unserved = {name for _, name in COUNTED} - served
    assert unserved == set()


def frozen(value):
    """True when no list, dict or set sits in ``value`` or the tuples in it."""
    if isinstance(value, tuple):
        return all(frozen(item) for item in value)
    return not isinstance(value, (list, dict, set))


def test_every_degree_memoised_family_is_a_tuple(monkeypatch):
    # a memoised family is served to every later reader, so none may hold a
    # list that one reader could change under the next; each builder sits
    # behind a fresh memo, so every one is called
    results = defaultdict(list)
    memoised = {(module, name) for (module, name), memo in COUNTED.items() if memo is degree_memo}
    for module, name in memoised:

        def call(*args, fresh=degree_memo(RAW[module, name]), name=name):
            results[name].append(out := fresh(*args))
            return out

        rebind(monkeypatch, getattr(module, name), call)
    cli.main(["table", "--max", "8"])
    for suite in WORKLOAD:
        verify.run_suite(suite)
    assert set(results) == {name for _, name in memoised}
    for name, served in results.items():
        assert all(isinstance(out, tuple) and frozen(out) for out in served), name
