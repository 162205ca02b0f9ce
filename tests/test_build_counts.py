"""Each ``verify`` suite builds each series it reads once, at the deepest
order (or depth) it asks for, and serves the rest from the memo.  Across
suites, every memoised series is built once, whichever suite runs first.

Every memoised builder of ``forms``, ``mock`` and ``uplane``, found as
tests/test_memo.py finds them, and moonshine's subset-sum tables, are
replaced, in every qmock module that binds them, by a fresh memo of the
same kind around a counting copy of the unmemoised body, so the memo
starts empty and each count is one build.
"""

import inspect
import random
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest

from qmock import forms, mock, moonshine, uplane, verify
from qmock.brackets import bracket_hat
from qmock.mock import H_POINTS
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
COUNTED[moonshine, "_tables"] = lru_cache(maxsize=1)

RAW = {"q_plus": mock.q_plus.__wrapped__, "h_series": mock.h_series.__wrapped__}


@pytest.fixture
def builds(monkeypatch):
    """name -> the arguments of every build of that builder."""
    seen = defaultdict(list)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qmock"]
    for (module, name), memo in COUNTED.items():
        old = getattr(module, name)

        def counted(*args, raw=old.__wrapped__, name=name):
            seen[name].append(args)
            return raw(*args)

        new = memo(counted)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is old:
                    monkeypatch.setattr(m, attr, new)
    return seen


def test_jacobi_builds_q_plus_the_h_k_family_and_the_theta_quotient_once(builds):
    verify.run_suite("jacobi")
    # H_0..H_4 to order 32 read Q+ to 32 + (48 * 4 + 24) / 24 = 41
    assert builds["q_plus"] == [(41,)]
    assert builds["h_k_family"] == [(32, 4)]
    assert builds["theta_quotient_factor"] == [(128,)]


def test_genus_builds_each_mu_and_h_once_at_the_deepest_order(builds):
    verify.run_suite("genus")
    # z = tau/2 and (1+tau)/2 read mu and H at order 65, z = 1/2 at 64
    assert builds["h_series"] == [(65,)]
    assert builds["mu_half_period"] == [(v, 65) for v in H_POINTS]


def test_moonshine_builds_its_subset_sum_tables_once(builds):
    verify.run_suite("moonshine")
    assert builds["_tables"] == [(moonshine.M24_DIMENSIONS,)]


def direct_h_k(k, order):
    """H_k on its own, as the top rung of a ladder built for k alone from
    unmemoised Q+ and H."""
    prec = 24 * order
    need = prec + 48 * k + 24
    qp = RAW["q_plus"](q_order(need))
    h8 = RAW["h_series"](q_order(Fraction(need, 8))).rescale_exponents(8, 1)
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
    rebuilt = {
        (name, key): count
        for name, calls in builds.items()
        for key, count in Counter(args[:-1] for args in calls).items()
        if count > 1
    }
    assert rebuilt == {}
