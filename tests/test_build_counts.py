"""Each ``verify`` suite builds each series it reads once, at the deepest
order (or depth) it asks for, and serves the rest from the memo.  Across
suites, each series that several checks share is built once, at the
battery's depth, whichever suite runs first.

Every memoised builder below is replaced, in every qmock module that
binds it, by a fresh memo of the same kind around a counting copy of its
unmemoised body, so the memo starts empty and each count is one build.
"""

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

#: (module, name) -> the memo it sits on
COUNTED = {
    (mock, "q_plus"): order_memo,
    (mock, "mu_half_period"): order_memo,
    (mock, "h_series"): order_memo,
    (uplane, "theta_quotient_factor"): order_memo,
    (uplane, "h_k_family"): degree_memo,
    (uplane, "route_vectors"): degree_memo,
    (uplane, "theta_family"): degree_memo,
    (forms, "theta_big"): order_memo,
    (moonshine, "_tables"): lru_cache(maxsize=1),
}

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

#: builder -> the one build per key that the five suites make, in any order:
#: H and the three mu at the genus's order 65, Q+ at the 41 that H_0..H_4 to
#: order 32 read, both route A stores and the theta family at the kernel
#: suite's degree 9, and Theta_2/3/4 at the rescale relations' 8 * 128
SHARED = {
    "h_series": [(65,)],
    "mu_half_period": [(v, 65) for v in H_POINTS],
    "q_plus": [(41,)],
    "route_vectors": [(uplane.ROUTE_H12, 9), (uplane.ROUTE_QPLUS, 9)],
    "theta_family": [(9,)],
    "theta_big": [(j, 1024) for j in (2, 3, 4)],
}


@pytest.mark.parametrize("order", SUITE_ORDERS, ids=lambda order: ",".join(order))
def test_the_verify_workload_builds_each_shared_series_once(order, builds):
    for suite in order:
        verify.run_suite(suite)
    assert {name: Counter(builds[name]) for name in SHARED} == {
        name: Counter(args) for name, args in SHARED.items()
    }
