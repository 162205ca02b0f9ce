"""The route table: every route label names one store and one weight.

``cli.ROUTES`` maps the ``--via`` choices to route labels, and the
per-pair entry points are ``donaldson_phi`` on their own route.
"""

import pytest

from qmock import cli
from qmock.uplane import (
    ROUTE_FINAL,
    ROUTE_H12,
    ROUTE_TABLE,
    donaldson_phi,
    phi_route_a,
    phi_route_b,
)

PAIRS = [(m, t - m) for t in range(7) for m in range(t + 1)]


def test_an_unknown_route_raises_value_error():
    with pytest.raises(ValueError, match="unknown route 'nope'"):
        donaldson_phi(0, 0, "nope")


def test_every_cli_route_label_is_in_the_table():
    labels = {label for labels in cli.ROUTES.values() for label in labels}
    assert labels and labels <= set(ROUTE_TABLE)


@pytest.mark.parametrize("entry, route", [
    (phi_route_a, ROUTE_H12), (phi_route_b, ROUTE_FINAL),
], ids=["phi_route_a", "phi_route_b"])
def test_entry_points_are_donaldson_phi_on_their_route(entry, route):
    for m, n in PAIRS:
        assert entry(m, n) == donaldson_phi(m, n, route), (m, n)
