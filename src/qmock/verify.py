"""The verification battery behind ``qmock verify`` and the acceptance tests.

Each check is a pure function returning a CheckResult; suites are named
bundles.  Everything is exact arithmetic, so a check either holds
identically to the stated order or fails with a concrete witness.

``run_suite`` first builds the battery (``_build_battery``): every
memoised series that more than one check reads, once, at the deepest
order (or degree) any check reads it, in dependency order.  The checks
themselves build nothing ahead of their own reads, and the memos serve
every shallower read as a prefix, in any suite and in any order.  A
suite run on its own therefore builds the whole battery.

One check is red by design of its expected value: ``z0-derivative-identity``
asserts the unit-constant form of the derivative identity as quoted in
the literature, but the exact constant is -2 (see
``z0-derivative-corrected``, which passes).  The failure detail reports
the measured constant.
"""

from collections import namedtuple
from fractions import Fraction

from . import uplane  # the route stores, read through their one module binding
from .qseries import LATTICE_DEN, Series, q_order
from .forms import (
    V_HALF,
    V_ONE_PLUS_TAU_HALF,
    V_TAU_HALF,
    V_ZERO,
    eta,
    theta_big,
    theta_big_direct,
    theta_nullwert,
    z0_hat,
)
from .mock import (
    a_coefficients,
    elliptic_genus_check,
    elliptic_genus_theta,
    genus_eta_order,
    genus_mock_order,
    h_series,
    q_plus,
    q_plus_rescaled,
)
from .moonshine import (
    A6_PARTS,
    A7_PARTS,
    M24_DIMENSIONS,
    decompose_bounded,
    decompose_distinct,
)
from .uplane import (
    ROUTE_H12,
    ROUTE_QPLUS,
    RouteMismatch,
    donaldson_phi,
    column_extract,
    generating_function,
    h_k_qplus_order,
    h_k_series,
    theta_quotient_factor,
    weigh_a,
    z0_reduce,
)

A_TABLE = {1: 45, 2: 231, 3: 770, 4: 2277, 5: 5796, 6: 13915, 7: 30843, 8: 65550}

PHI_TABLE = {
    (0, 0): Fraction(-1),
    (0, 2): Fraction(-3, 16),
    (1, 1): Fraction(-5, 16),
    (2, 0): Fraction(-19, 16),
    (0, 4): Fraction(-232, 256),
    (1, 3): Fraction(-152, 256),
    (2, 2): Fraction(-136, 256),
    (3, 1): Fraction(-184, 256),
    (4, 0): Fraction(-680, 256),
}

COLUMN_TABLE = {
    (0, 0): (Fraction(6), Fraction(-1, 4)),
    (0, 2): (Fraction(-2133, 64), Fraction(9, 4), Fraction(-49, 64)),
    (1, 1): (Fraction(-195, 64), Fraction(1, 4), Fraction(-7, 64)),
    (2, 0): (Fraction(411, 64), Fraction(-1, 4), Fraction(-1, 64)),
    (0, 4): (
        Fraction(108741, 128),
        Fraction(44631, 1024),
        Fraction(2401, 128),
        Fraction(-14641, 1024),
    ),
    (1, 3): (
        Fraction(-1749, 128),
        Fraction(10341, 1024),
        Fraction(-49, 128),
        Fraction(-1331, 1024),
    ),
    (2, 2): (
        Fraction(-3687, 128),
        Fraction(2895, 1024),
        Fraction(-91, 128),
        Fraction(-121, 1024),
    ),
    (3, 1): (
        Fraction(-753, 128),
        Fraction(589, 1024),
        Fraction(-29, 128),
        Fraction(-11, 1024),
    ),
    (4, 0): (
        Fraction(1725, 128),
        Fraction(-505, 1024),
        Fraction(-7, 128),
        Fraction(-1, 1024),
    ),
}

QPLUS_HEAD = (1, 28, 39, 196, 161)

KERNEL_SUITE_DEGREE = 9  # the ``kernel`` suite's deepest degree
GENUS_ORDER = 64
# tau/2 is the half-period where theta_1's quarter-turn count is odd,
# so it is the one that sees the sign (i^p)^2 = (-1)^p on theta_1^2
GENUS_POINTS = (
    (V_HALF, "z=1/2"),
    (V_TAU_HALF, "z=tau/2"),
    (V_ONE_PLUS_TAU_HALF, "z=(1+tau)/2"),
)
HK_K_MAX, HK_ORDER = 4, 32
RESCALE_ORDER = 128
Z0_ORDER = 128  # both z0-derivative checks


def _build_battery():
    """Build every memoised series that more than one check reads, once,
    at the deepest order (or degree) any check reads it, each before the
    builds that read it shallower; every later read is served from the
    memo as a prefix, in any suite and in any order."""
    # H, and with it the three mu: the genus at z = tau/2 and (1+tau)/2
    h_series(max(genus_mock_order(v, GENUS_ORDER) for v, _ in GENUS_POINTS))
    q_plus(h_k_qplus_order(HK_ORDER, HK_K_MAX))  # the H_k family
    eta(1, max(genus_eta_order(v, GENUS_ORDER) for v, _ in GENUS_POINTS))
    for j in (2, 3, 4):  # the rescale relations read the deepest of both thetas
        theta_nullwert(j, RESCALE_ORDER)
        theta_big(j, 8 * RESCALE_ORDER)
    # T reads eta(8tau), and Z0hat E*, deeper than the H_k ladder and route B
    theta_quotient_factor(Z0_ORDER)
    z0_hat(Z0_ORDER)
    uplane.h_k_family(HK_ORDER, HK_K_MAX)  # E2 deeper than route A's ladders
    for route in (ROUTE_H12, ROUTE_QPLUS):  # and with them route A's theta family
        uplane.route_vectors(route, KERNEL_SUITE_DEGREE)


CheckResult = namedtuple("CheckResult", "name passed detail")


def _result(name, passed, ok_detail, bad_detail=None):
    return CheckResult(name, passed, ok_detail if passed else (bad_detail or ok_detail))


def _agree_to(prec, lhs, rhs):
    """Both sides certified below ``prec`` lattice units and equal there.

    ``Series.agrees_with`` compares below the smaller precision only, so
    a side that falls short would pass on fewer terms than a check states.
    """
    return lhs.prec >= prec and rhs.prec >= prec and lhs.truncate(prec) == rhs.truncate(prec)


def check_mock_coefficients():
    a = a_coefficients(10)
    bad = [(n, a[n], want) for n, want in A_TABLE.items() if a[n] != want]
    h = h_series(10)
    lead = h.coefficient(-3)
    odd = [k for k in range(1, 20, 2) if h.coefficient(-3 + 12 * k)]
    ok = lead == -2 and not bad and not odd
    return _result(
        "mock-coefficients",
        ok,
        "A_1..A_8 match and all odd half-power coefficients vanish",
        f"q^(-1/8) coefficient {lead} (want -2), mismatches {bad}, odd-power residue at k {odd}",
    )


def check_qplus_expansion():
    s = q_plus_rescaled(4)
    got = tuple(s.coefficient(-3 + 12 * k) for k in range(5))
    ok = got == QPLUS_HEAD
    return _result(
        "qplus-expansion",
        ok,
        "Q+(tau/8) = q^(-1/8)(1 + 28q^(1/2) + 39q + 196q^(3/2) + 161q^2 + ...)",
        f"leading graded coefficients {[str(g) for g in got]}",
    )


def check_donaldson_table():
    bad = []
    for (m, n), want in PHI_TABLE.items():
        for route in (ROUTE_QPLUS, ROUTE_H12):
            got = donaldson_phi(m, n, route)
            if got != want:
                bad.append((m, n, route, str(got), str(want)))
    return _result(
        "donaldson-table",
        not bad,
        "all nine Phi_{m,2n} match on Q+(tau/8) and on H/12",
        f"mismatches: {bad}",
    )


def check_symbolic_columns():
    bad = []
    for (m, n), want in COLUMN_TABLE.items():
        got = tuple(column_extract(m, n, len(want) - 1))
        if got != want:
            bad.append((m, n, [str(x) for x in got]))
    return _result(
        "symbolic-columns",
        not bad,
        "functional columns match the tabulated rational coefficients",
        f"mismatches: {bad}",
    )


def _nonzero_pairs(vector, total):
    """(m, n, str(value)) for each pair of degree ``total`` whose route A
    value is nonzero.  The vector holds the pairs' alternating sums and each
    value is a nonzero scalar times entry n, so the list is empty exactly
    when the vector is zero."""
    pairs = ((m, total - m, weigh_a(vector, m, total - m)) for m in range(total + 1))
    return [(m, n, str(v)) for m, n, v in pairs if v]


def check_kernel(max_total=8):
    # D_(m,2n) is linear in the mock: on Q+(tau/8) - H/12 it is the stores' difference
    h12, qplus = (uplane.route_vectors(route, max_total) for route in (ROUTE_H12, ROUTE_QPLUS))
    bad = []
    for total in range(max_total + 1):
        bad += _nonzero_pairs([q - h for q, h in zip(qplus[total], h12[total])], total)
    return _result(
        "kernel-vanishing",
        not bad,
        f"D_(m,2n)[Q+(tau/8) - H/12] = 0 for all m+n <= {max_total}",
        f"nonzero at {bad}",
    )


def check_routes(max_total=8):
    try:
        generating_function(max_total)
    except RouteMismatch as exc:
        return CheckResult("route-equivalence", False, str(exc))
    return CheckResult(
        "route-equivalence",
        True,
        f"tau-variable functional equals the 8tau product formula for m+n <= {max_total}",
    )


def check_parity(max_total=KERNEL_SUITE_DEGREE):
    bad = []
    h12, qplus = (uplane.route_vectors(route, max_total) for route in (ROUTE_H12, ROUTE_QPLUS))
    for total in range(1, max_total + 1, 2):
        for route, store in ((ROUTE_QPLUS, qplus), (ROUTE_H12, h12)):
            bad += [(m, n, route, v) for m, n, v in _nonzero_pairs(store[total], total)]
    return _result(
        "parity-vanishing",
        not bad,
        f"D_(m,2n) = 0 for odd m+n <= {max_total} on both mocks",
        f"nonzero at {bad}",
    )


# ---------------------------------------------------------------- structural


def check_jacobi_eta_cube(prec24=200):
    lhs = eta(1, q_order(prec24 - 2)).pow_int(3)
    pairs = []
    n = 0
    while 12 * n * (n + 1) + 3 < prec24:
        pairs.append((12 * n * (n + 1) + 3, (-1) ** n * (2 * n + 1)))
        n += 1
    rhs = Series.from_pairs(pairs, prec=prec24)
    ok = _agree_to(prec24, lhs, rhs)
    return _result(
        "jacobi-eta-cube",
        ok,
        f"eta^3 = sum (-1)^n (2n+1) q^(n(n+1)/2 + 1/8) to {prec24} lattice units",
        "coefficient mismatch",
    )


def _z0_derivative_sides(order):
    return z0_hat(order).q_derive(), theta_quotient_factor(order)


def check_z0_derivative_identity(order=Z0_ORDER):
    """The unit-constant form: q dZ0hat/dq = Theta4^9/(Theta2 Theta3 eta(8tau)^3)."""
    lhs, rhs = _z0_derivative_sides(order)
    prec = LATTICE_DEN * order
    if _agree_to(prec, lhs, rhs):
        return CheckResult("z0-derivative-identity", True, "identity holds")
    v = rhs.val()
    ratio = lhs.coefficient(v) / rhs.coefficient(v)
    const = str(ratio) if _agree_to(prec, lhs, rhs.scale(ratio)) else "no constant ratio"
    return CheckResult(
        "z0-derivative-identity",
        False,
        f"q dZ0hat/dq = c * Theta4^9/(Theta2 Theta3 eta(8tau)^3) holds with "
        f"c = {const}, not c = 1",
    )


def check_z0_derivative_corrected(order=Z0_ORDER):
    """The exact form: q dZ0hat/dq = -2 * Theta4^9/(Theta2 Theta3 eta(8tau)^3)."""
    lhs, rhs = _z0_derivative_sides(order)
    ok = _agree_to(LATTICE_DEN * order, lhs, rhs.scale(-2))
    return _result(
        "z0-derivative-corrected",
        ok,
        f"q dZ0hat/dq = -2 * theta quotient to order {order}",
        "corrected identity fails",
    )


def check_rescale_relations(order=RESCALE_ORDER):
    ok = True
    for j, scale in ((2, 2), (3, 1), (4, 1)):
        big = theta_big(j, 8 * order).rescale_exponents(1, 8).scale(scale)
        if not _agree_to(LATTICE_DEN * order, big, theta_nullwert(j, order)):
            ok = False
    return _result(
        "theta-rescale-relations",
        ok,
        f"theta_2 = 2 Theta_2(tau/8), theta_3/4 = Theta_3/4(tau/8) to order {order}",
        "a rescale relation fails",
    )


def check_theta_construction_consistency(order=96):
    ok = all(
        _agree_to(LATTICE_DEN * order, theta_big(j, order), theta_big_direct(j, order))
        for j in (2, 3, 4)
    )
    return _result(
        "theta-eta-quotient-consistency",
        ok,
        "eta-quotient and direct-sum Theta_j expansions agree",
        "construction routes disagree",
    )


def check_hk_reduction(k_max=HK_K_MAX, order=HK_ORDER):
    bad = []
    for k in range(k_max + 1):
        hk = h_k_series(k, order)
        poly = z0_reduce(hk, 2 * k + 4)
        if not _agree_to(LATTICE_DEN * order, poly.evaluate(order), hk):
            bad.append(k)
    return _result(
        "hk-z0-reduction",
        not bad,
        f"H_k lies in C((q^2)) and reduces to a Z0hat polynomial for k <= {k_max}",
        f"reduction failed for k in {bad}",
    )


def check_genus(order=GENUS_ORDER):
    prec = LATTICE_DEN * order
    bad = []
    for v, label in GENUS_POINTS:
        if not _agree_to(prec, elliptic_genus_check(v, order), Series.zero(prec)):
            bad.append(label)
    z0 = elliptic_genus_theta(V_ZERO, order)
    if not _agree_to(prec, z0, Series.monomial(0, 24, prec=prec)):
        bad.append("z=0 constant")
    return _result(
        "elliptic-genus",
        not bad,
        f"both genus representations agree at the half-periods to order {order}; "
        "the theta ratio at z=0 is the constant 24",
        f"failures: {bad}",
    )


def check_moonshine():
    a = a_coefficients(9)
    bad = []
    for n in range(1, 6):
        if a[n] not in M24_DIMENSIONS:
            bad.append(f"A_{n}={a[n]} not a dimension")
    w6 = decompose_distinct(a[6])
    if w6 is None or w6.dims() != A6_PARTS:
        bad.append(f"A_6 witness {None if w6 is None else w6.dims()}")
    w7 = decompose_distinct(a[7])
    if w7 is None or w7.dims() != A7_PARTS:
        bad.append(f"A_7 witness {None if w7 is None else w7.dims()}")
    count, witnesses = decompose_bounded(24, 1)
    if count < 1 or (1, 23) not in [w.dims() for w in witnesses]:
        bad.append("24 != 1 + 23")
    return _result(
        "moonshine-decompositions",
        not bad,
        "A_1..A_5 are M24 dimensions; A_6, A_7 witnesses found; 24 = 1 + 23",
        "; ".join(bad),
    )


STRUCTURAL_CHECKS = (
    check_jacobi_eta_cube,
    check_z0_derivative_identity,
    check_z0_derivative_corrected,
    check_rescale_relations,
    check_theta_construction_consistency,
    check_hk_reduction,
)

SUITES = {
    "paper-table": (
        check_mock_coefficients,
        check_qplus_expansion,
        check_donaldson_table,
        check_symbolic_columns,
    ),
    "kernel": (check_kernel, check_parity),
    "routes": (check_routes,),
    "jacobi": STRUCTURAL_CHECKS,
    "genus": (check_genus,),
    "moonshine": (check_moonshine,),
}

SUITES["all"] = (
    SUITES["paper-table"]
    + SUITES["kernel"]
    + SUITES["routes"]
    + SUITES["jacobi"]
    + SUITES["genus"]
    + SUITES["moonshine"]
)


def run_suite(name):
    """All CheckResults of the named suite, in declaration order."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    _build_battery()
    return [check() for check in SUITES[name]]
