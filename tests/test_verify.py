"""A verify check must fail when either side is certified below the
precision its detail line states, not pass on the terms both sides have.
Each check takes no arguments: it reads its depth from a module constant."""

import inspect

import pytest

from qmock import brackets, cli, mock, uplane
from qmock import verify as V
from qmock.qseries import Series


def shortened(fn):
    """``fn`` with its result certified 8 lattice units short."""

    def short(*args):
        result = fn(*args)
        return result.truncate(result.prec - 8)

    return short


def test_every_check_takes_no_arguments():
    for check in V.SUITES["all"]:
        assert not inspect.signature(check).parameters, check.__name__


def test_verify_reads_uplane_only_through_its_public_calls():
    # the route stores and the H_k ladder are uplane's layout, not verify's
    private = {"uplane", "route_vectors", "h_k_family", "weigh_a", "h_k_qplus_order",
               "_nonzero_pairs"}
    assert private.isdisjoint(vars(V))


#: check, the side shortened, and the depth constants set for the case.  At
#: JACOBI_PREC = 200 eta^3 is built to q_order(200) = 9 q-units, 216 lattice
#: units, so an eta^3 8 short still certifies 200; at 48 it certifies 40.
CASES = [
    (V.check_jacobi_eta_cube, "eta_cube", {"JACOBI_PREC": 48}),
    (V.check_z0_derivative_corrected, "theta_quotient_factor", {}),
    (V.check_z0_derivative_corrected, "z0_hat", {}),
    (V.check_rescale_relations, "theta_nullwert", {}),
    (V.check_theta_construction_consistency, "theta_big_direct", {}),
    (V.check_hk_reduction, "h_k_series", {}),
    (V.check_genus, "elliptic_genus_theta", {}),
    (V.check_genus, "elliptic_genus_check", {}),
]


@pytest.mark.parametrize("check, side, depths", [
    pytest.param(*case, id=f"{case[0].__name__}-{case[1]}") for case in CASES
])
def test_a_short_side_turns_the_check_red(check, side, depths, monkeypatch):
    for name, depth in depths.items():
        monkeypatch.setattr(V, name, depth)
    assert check().passed
    monkeypatch.setattr(V, side, shortened(getattr(V, side)))
    assert not check().passed


def test_identity_check_claims_no_constant_on_a_short_side(monkeypatch):
    assert "c = -2, not c = 1" in V.check_z0_derivative_identity().detail
    monkeypatch.setattr(V, "theta_quotient_factor", shortened(V.theta_quotient_factor))
    result = V.check_z0_derivative_identity()
    assert not result.passed
    assert "no constant ratio" in result.detail


def off_by_one(stores, route, degree, n):
    """``stores`` with entry n of ``route``'s vector of ``degree`` off by 1."""

    def route_vectors(r, d):
        vectors = stores(r, d)
        if r != route or d < degree:
            return vectors
        vector = vectors[degree]
        wrong = vector[:n] + (vector[n] + 1,) + vector[n + 1:]
        return vectors[:degree] + (wrong,) + vectors[degree + 1:]

    return route_vectors


#: check, the store it reads, the degree and entry put off, the pair it names
STORE_CASES = [
    (V.check_kernel, uplane.ROUTE_H12, 4, 1, "(3, 1, "),
    (V.check_parity, uplane.ROUTE_QPLUS, 5, 2, "(3, 2, 'QplusTau8', "),
    (V.check_routes, uplane.ROUTE_FINAL, 2, 0, "(2,0)"),
    (V.check_donaldson_table, uplane.ROUTE_H12, 2, 1, "(1, 1, 'HOver12', "),
]


@pytest.mark.parametrize("check, route, degree, n, pair", [
    pytest.param(*case, id=case[0].__name__) for case in STORE_CASES
])
def test_one_wrong_store_entry_turns_the_check_red(check, route, degree, n, pair, monkeypatch):
    assert check().passed
    monkeypatch.setattr(uplane, "route_vectors", off_by_one(uplane.route_vectors, route, degree, n))
    result = check()
    assert not result.passed
    assert pair in result.detail


# The kernel check compares route A on Q+(tau/8) with route A on H/12.  Q+
# comes from mock_theta_m, not from H, so a wrong H or a wrong bracket row
# breaks the equality even though both routes of a table would agree.


def test_a_wrong_h_turns_the_kernel_check_red(unmemoised, monkeypatch):
    h_series = uplane.h_series

    def wrong_h(order):  # H + 2 q^(7/8): A_1 off by one, at lattice 21
        return h_series(order) + Series.monomial(21, 2, prec=24 * order)

    monkeypatch.setattr(uplane, "h_series", wrong_h)
    result = V.check_kernel()
    assert not result.passed
    assert result.detail.startswith("nonzero at [(0, 2, ")


def test_a_wrong_h_turns_the_genus_and_mock_coefficient_checks_red(monkeypatch):
    # H comes from Eguchi-Hikami; the genus check reads the three mu against
    # it, so mu checks the production H in every verify run
    h_series = mock.h_series

    def wrong_h(order):  # H + 2 q^(23/8): A_3 off by one, at lattice 69
        return h_series(order) + Series.monomial(69, 2, prec=24 * order)

    for module in (mock, uplane, V):
        monkeypatch.setattr(module, "h_series", wrong_h)
    results = {r.name: r for suite in ("paper-table", "genus") for r in V.run_suite(suite)}
    assert not results["mock-coefficients"].passed
    assert "mismatches [(3, 771, 770)]" in results["mock-coefficients"].detail
    assert results["elliptic-genus"].detail == "failures: ['z=1/2', 'z=tau/2', 'z=(1+tau)/2']"


def test_a_wrong_bracket_row_turns_the_kernel_check_red(unmemoised, monkeypatch):
    row = brackets._row

    def wrong_row(k, weights):  # N_0 added to entry j = 1 of every row k >= 5
        out = row(k, weights)
        if k >= 5:
            out[1] += weights[0]
        return out

    monkeypatch.setattr(brackets, "_row", wrong_row)
    result = V.check_kernel()
    assert not result.passed
    assert result.detail.startswith("nonzero at [(0, 6, ")


# The genus check's z = 0 branch reads theta_j(0|tau) as both numerator and
# denominator, so it sees nothing; the half-periods divide by it too, and
# each of the two where theta_j(z|tau) does not vanish sees it.


@pytest.mark.parametrize("j, red", [
    (2, ["z=tau/2", "z=(1+tau)/2"]),
    (3, ["z=1/2", "z=tau/2"]),
    (4, ["z=1/2", "z=(1+tau)/2"]),
])
def test_a_wrong_theta_nullwert_turns_the_genus_check_red(j, red, monkeypatch):
    theta_nullwert = mock.theta_nullwert

    def wrong(i, order):  # theta_j(0|tau) + 5q
        right = theta_nullwert(i, order)
        return right + Series.monomial(24, 5, prec=right.prec) if i == j else right

    monkeypatch.setattr(mock, "theta_nullwert", wrong)
    result = V.check_genus()
    assert not result.passed
    assert result.detail == f"failures: {red}"


# A wrong H_k is a failed reduction, reported as such, not an exception
# that stops the battery: q added to H_2 leaves C((q^2)), and q^4 added to
# H_3 leaves a tail no Z0hat polynomial clears.


def wrong_h_k(k, lattice):
    """``uplane.h_k_family`` with q^(lattice/24) added to H_k."""
    family = uplane.h_k_family

    def h_k_family(order, k_max):
        out = family(order, k_max)
        if k_max < k:
            return out
        wrong = out[k] + Series.monomial(lattice, 1, prec=out[k].prec)
        return out[:k] + (wrong,) + out[k + 1:]

    return h_k_family


H_K_MUTANTS = [pytest.param(2, 24, id="q-in-H_2"), pytest.param(3, 96, id="q^4-in-H_3"),
               pytest.param(4, 24, id="q-in-H_4")]


@pytest.mark.parametrize("k, lattice", H_K_MUTANTS)
def test_a_wrong_h_k_turns_the_reduction_check_red(k, lattice, monkeypatch):
    assert V.check_hk_reduction().passed
    monkeypatch.setattr(uplane, "h_k_family", wrong_h_k(k, lattice))
    result = V.check_hk_reduction()
    assert result.passed is False
    assert result.detail == f"reduction failed for k in [{k}]"


@pytest.mark.parametrize("k, lattice", H_K_MUTANTS)
def test_a_wrong_h_k_still_prints_every_jacobi_check(k, lattice, monkeypatch, capsys):
    monkeypatch.setattr(uplane, "h_k_family", wrong_h_k(k, lattice))
    code = cli.main(["verify", "--suite", "jacobi"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split()[0] for line in lines[:-1]] == ["PASS", "FAIL", "PASS", "PASS", "PASS", "FAIL"]
    assert lines[-2] == f"FAIL hk-z0-reduction: reduction failed for k in [{k}]"
    assert lines[-1] == "4/6 checks passed"
