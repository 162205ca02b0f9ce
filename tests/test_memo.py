"""The order-monotone memo: a smaller order served from a larger one must
be exactly what a direct computation at that order gives.  The
degree-monotone memo serves a smaller degree as a prefix."""

import ast
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from qmock import forms, mock, qseries, uplane
from qmock.qseries import Series, degree_memo, order_memo

#: every memoised function, with the keys (arguments before the order)
#: it is checked at
MEMOISED = {
    (forms, "eta_cube"): [()],
    (forms, "theta_nullwert"): [(2,), (3,), (4,)],
    (forms, "theta_big"): [(2,), (3,), (4,)],
    (forms, "z0_hat"): [()],
    (mock, "h_series"): [()],
    (mock, "q_plus"): [()],
    (uplane, "theta_quotient_factor"): [()],
}

#: uplane's degree-memoised builders, whose served prefixes
#: tests/test_degree_store.py and tests/test_build_counts.py check
DEGREE_MEMOISED = {(uplane, "route_vectors"), (uplane, "theta_family"), (uplane, "h_k_family"),
                   (uplane, "h_ladder"), (uplane, "_z0_powers")}

WARM_ORDER = 32


def wire(value):
    """The exact wire form of a memoised result, always a Series."""
    assert isinstance(value, Series)
    return value.to_json_obj()


def test_every_memoised_function_is_checked():
    found = {
        (module, name)
        for module in (forms, mock, uplane)
        for name, value in vars(module).items()
        if hasattr(value, "__wrapped__") and value.__module__ == module.__name__
    }
    assert found == set(MEMOISED) | DEGREE_MEMOISED


def test_no_module_memoises_through_functools():
    # order_memo and degree_memo are the only memos in the package
    caches = {"lru_cache", "cache"}
    used = set()
    for path in sorted(Path(qseries.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                used |= {(path.name, alias.name) for alias in node.names if alias.name in caches}
            elif isinstance(node, ast.Attribute) and node.attr in caches:
                used.add((path.name, node.attr))
    assert used == set()


@pytest.mark.parametrize("module, name, key", [
    pytest.param(module, name, key,
                 id="-".join([name, *map(str, key)]))
    for (module, name), keys in MEMOISED.items() for key in keys
])
def test_served_orders_equal_direct_computation(module, name, key):
    fn = getattr(module, name)
    fn(*key, WARM_ORDER)
    for order in range(1, 25):
        assert wire(fn(*key, order)) == wire(fn.__wrapped__(*key, order)), order


def test_nonpositive_orders_bypass_the_memo():
    computed = []

    def build(order):
        computed.append(order)
        return forms.eta_cube.__wrapped__(order)

    eta_cube = order_memo(build)
    eta_cube(WARM_ORDER)
    # order 0 certifies the empty prefix, as every named series does
    empty = eta_cube(0)
    assert empty.prec == 0 and empty.is_zero()
    assert str(empty) == "O(q^(0))"
    assert wire(eta_cube(-1)) == wire(forms.eta_cube(-1))
    assert computed == [WARM_ORDER, 0, -1]
    mock.h_series(WARM_ORDER)
    assert str(mock.q_plus(0)) == "q^-1 + O(q^(0))"


def test_memo_keeps_the_largest_order():
    computed = []

    @order_memo
    def ones(order):
        computed.append(order)
        return Series.one(24 * order)

    assert ones(5).prec == 120
    assert ones(3).prec == 72
    assert ones(7).prec == 168
    assert ones(5).prec == 120
    assert ones(0).prec == 0
    assert computed == [5, 7, 0]


def test_degree_memo_serves_prefixes_of_the_largest_degree():
    computed = []

    @degree_memo
    def squares(key, degree):
        computed.append((key, degree))
        return tuple(key * d * d for d in range(degree + 1))

    assert squares(1, 4) == (0, 1, 4, 9, 16)
    assert squares(1, 2) == (0, 1, 4)
    assert squares(1, 0) == (0,)
    assert squares(2, 1) == (0, 2)
    assert squares(1, 5) == (0, 1, 4, 9, 16, 25)
    assert squares(1, 3) == (0, 1, 4, 9)
    assert squares(1, -1) == ()  # a negative degree bypasses the memo
    assert computed == [(1, 4), (2, 1), (1, 5), (1, -1)]


def test_a_late_smaller_result_does_not_replace_a_larger_one():
    computed = []

    @order_memo
    def ones(order):
        computed.append(order)
        if order == 3:
            ones(7)  # a larger order is stored first, as a concurrent caller could
        return Series.one(24 * order)

    assert ones(3).prec == 72
    assert ones(7).prec == 168
    assert computed == [3, 7]


def test_concurrent_callers_never_lose_the_largest_order():
    computed = []
    wrong = []  # an assert inside a thread would not fail the test

    @order_memo
    def ones(order):
        computed.append(order)
        time.sleep(0)
        return Series.one(24 * order)

    def caller(seed):
        rng = random.Random(seed)
        for _ in range(300):
            order = rng.randint(1, 60)
            if ones(order).prec != 24 * order:
                wrong.append(order)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    done = len(computed)
    assert ones(max(computed)).prec == 24 * max(computed)
    assert ones(1).prec == 24
    assert len(computed) == done  # the largest order is still stored
