"""The order-monotone memo: a smaller order served from a larger one must
be exactly what a direct computation at that order gives."""

import random
import sys
import threading
import time

import pytest

from qmock import forms, mock
from qmock.forms import V_HALF, V_ONE_PLUS_TAU_HALF, V_TAU_HALF
from qmock.qseries import Series, order_memo

POINT_NAMES = {V_HALF: "half", V_ONE_PLUS_TAU_HALF: "onetauhalf", V_TAU_HALF: "tauhalf"}

#: every memoised function, with the keys (arguments before the order)
#: it is checked at
MEMOISED = {
    (forms, "eta"): [(1,), (4,), (8,), (16,)],
    (forms, "theta_nullwert"): [(2,), (3,), (4,)],
    (forms, "theta_big"): [(2,), (3,), (4,)],
    (forms, "eisenstein_e2"): [()],
    (forms, "e_star"): [()],
    (forms, "z0_hat"): [()],
    (forms, "modular_a"): [()],
    (forms, "modular_b"): [()],
    (mock, "mu_half_period"): [(V_HALF,), (V_ONE_PLUS_TAU_HALF,), (V_TAU_HALF,)],
    (mock, "h_series"): [()],
}

WARM_ORDER = 32


def wire(value):
    """The exact wire form of a memoised result, always a Series."""
    assert isinstance(value, Series)
    return value.to_json_obj()


def test_every_memoised_function_is_checked():
    found = {
        (module, name)
        for module in (forms, mock)
        for name, value in vars(module).items()
        if hasattr(value, "__wrapped__") and value.__module__ == module.__name__
    }
    assert found == set(MEMOISED)


@pytest.mark.parametrize("module, name, key", [
    pytest.param(module, name, key,
                 id="-".join([name, *(str(POINT_NAMES.get(k, k)) for k in key)]))
    for (module, name), keys in MEMOISED.items() for key in keys
])
def test_served_orders_equal_direct_computation(module, name, key):
    fn = getattr(module, name)
    fn(*key, WARM_ORDER)
    for order in range(1, 25):
        assert wire(fn(*key, order)) == wire(fn.__wrapped__(*key, order)), order


def test_nonpositive_orders_bypass_the_memo():
    forms.eta(1, WARM_ORDER)
    # order 0 certifies the empty prefix, as every named series does
    empty = forms.eta(1, 0)
    assert empty.prec == 0 and empty.is_zero()
    assert str(empty) == "O(q^(0))"
    with pytest.raises(ValueError):
        forms.eta(1, -1)
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
