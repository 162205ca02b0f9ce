"""A verify check must fail when either side is certified below the
precision its detail line states, not pass on the terms both sides have."""

import pytest

from qmock import verify as V


def shortened(fn):
    """``fn`` with its result certified 8 lattice units short."""

    def short(*args):
        result = fn(*args)
        return result.truncate(result.prec - 8)

    return short


CASES = [
    (V.check_jacobi_eta_cube, "eta", {"prec24": 48}),
    (V.check_z0_derivative_corrected, "theta_quotient_factor", {"order": 8}),
    (V.check_z0_derivative_corrected, "z0_hat", {"order": 8}),
    (V.check_rescale_relations, "theta_nullwert", {"order": 8}),
    (V.check_theta_construction_consistency, "theta_big_direct", {"order": 8}),
    (V.check_hk_reduction, "h_k_series", {"k_max": 1, "order": 8}),
    (V.check_genus, "elliptic_genus_theta", {"order": 8}),
    (V.check_genus, "elliptic_genus_check", {"order": 8}),
]


@pytest.mark.parametrize("check, side, kwargs", [
    pytest.param(*case, id=f"{case[0].__name__}-{case[1]}") for case in CASES
])
def test_a_short_side_turns_the_check_red(check, side, kwargs, monkeypatch):
    assert check(**kwargs).passed
    monkeypatch.setattr(V, side, shortened(getattr(V, side)))
    assert not check(**kwargs).passed


def test_identity_check_claims_no_constant_on_a_short_side(monkeypatch):
    assert "c = -2, not c = 1" in V.check_z0_derivative_identity(order=8).detail
    monkeypatch.setattr(V, "theta_quotient_factor", shortened(V.theta_quotient_factor))
    result = V.check_z0_derivative_identity(order=8)
    assert not result.passed
    assert "no constant ratio" in result.detail
