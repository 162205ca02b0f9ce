"""The route table: every route label names one store and one weight.

``cli.ROUTES`` maps the ``--via`` choices to route labels, and the
per-pair entry points are ``donaldson_phi`` on their own route.  Route B's
families are route A's at tau/8 up to powers of 2, so its vectors are
route A's on H/12 scaled by 2^(2t+3) * 12.
"""

import pytest

from qmock import cli
from qmock.forms import eta, theta_big, z0_hat
from qmock.uplane import (
    ROUTE_FINAL,
    ROUTE_H12,
    ROUTE_TABLE,
    donaldson_phi,
    phi_route_a,
    phi_route_b,
    route_vectors,
    theta_family,
    theta_quotient_factor,
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


def test_route_b_families_are_route_a_families_at_tau_over_8():
    # Z0hat(tau/8) = 4X and (T eta(8tau)^3 (Theta2 Theta3)^(-2k-2))(tau/8) = 2^(2k+3) W_k
    x, w = zip(*theta_family(16))
    z0 = z0_hat(64).rescale_exponents(1, 8)
    assert z0.agrees_with(x[1].scale(4)) and min(z0.prec, x[1].prec) > 96
    prefactor = theta_quotient_factor(64) * eta(8, 64).pow_int(3)
    step = (theta_big(2, 64) * theta_big(3, 64)).pow_int(-2)
    for k in range(4):
        prefactor = prefactor * step
        tau8 = prefactor.rescale_exponents(1, 8)
        assert tau8.agrees_with(w[k].scale(2 ** (2 * k + 3))), k
        assert min(tau8.prec, w[k].prec) - w[k].val() > 96, k


def test_route_b_vectors_are_route_a_vectors_scaled():
    # so a fault in H, in its ladder or in a bracket row reaches both routes
    # scaled alike, and the route equality does not see it
    a, b = (route_vectors(route, 12) for route in (ROUTE_H12, ROUTE_FINAL))
    for t in range(13):
        for n in range(t + 1):
            assert b[t][n] == 2 ** (2 * t + 3) * 12 * a[t][n], (t, n)
