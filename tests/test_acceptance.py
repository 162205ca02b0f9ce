"""Acceptance battery: every criterion at its pinned order, zero tolerance.

A check takes no arguments and reads its depth from a ``verify``
constant, the one the battery reads; each criterion pins those values.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion.  All arithmetic is exact, so each criterion either
holds identically or fails with a concrete witness.

Criterion 07 asserts the Z0hat derivative identity with its exact
constant, q dZ0hat/dq = -2 * Theta4^9/(Theta2 Theta3 eta(8tau)^3), and
checks that the literature's unit-constant form stays refuted with the
measured constant c = -2.  The constant is forced by the leading terms:
Z0hat starts at q^(-2), so q dZ0hat/dq starts at -2 q^(-2), while the
theta quotient equals Theta4^8/(Theta2 Theta3)^2 (Jacobi's
theta2 theta3 theta4 = 2 eta^3 at 8tau) and starts at +q^(-2).  The red
unit-constant line remains only in ``qmock verify``'s output.
"""

from qmock import verify as V


def _report(number, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {result.name}: {status} - {result.detail}")
    assert result.passed, f"criterion {number}: {result.detail}"


def test_criterion_01_mock_coefficients():
    _report(1, V.check_mock_coefficients())


def test_criterion_02_qplus_expansion():
    _report(2, V.check_qplus_expansion())


def test_criterion_03_donaldson_table():
    _report(3, V.check_donaldson_table())


def test_criterion_04_symbolic_columns():
    _report(4, V.check_symbolic_columns())


def test_criterion_05_kernel_vanishing():
    assert V.KERNEL_DEGREE == 8
    _report(5, V.check_kernel())


def test_criterion_06_route_equivalence():
    assert V.ROUTES_DEGREE == 8
    _report(6, V.check_routes())


def test_criterion_07_structural_identities():
    assert V.JACOBI_PREC == 200
    assert V.Z0_ORDER == 128
    assert V.RESCALE_ORDER == 128
    assert (V.HK_K_MAX, V.HK_ORDER) == (4, 32)
    unit_constant = V.check_z0_derivative_identity()
    results = [
        V.check_jacobi_eta_cube(),
        V.check_z0_derivative_corrected(),
        V.CheckResult(
            "z0-unit-constant-refuted",
            not unit_constant.passed
            and unit_constant.detail.endswith("c = -2, not c = 1"),
            f"expected c = 1 refuted with c = -2, got: {unit_constant.detail}",
        ),
        V.check_rescale_relations(),
        V.check_hk_reduction(),
    ]
    failed = [r for r in results if not r.passed]
    status = "PASS" if not failed else "FAIL"
    detail = (
        "all structural identities hold"
        if not failed
        else "; ".join(f"{r.name}: {r.detail}" for r in failed)
    )
    print(f"ACCEPTANCE 07 structural-identities: {status} - {detail}")
    assert not failed, f"criterion 7: {detail}"


def test_criterion_08_elliptic_genus():
    assert V.GENUS_ORDER == 64
    _report(8, V.check_genus())


def test_criterion_09_moonshine():
    _report(9, V.check_moonshine())


def test_criterion_10_parity():
    assert V.KERNEL_SUITE_DEGREE == 9
    _report(10, V.check_parity())
