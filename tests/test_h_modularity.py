"""H's mock modularity: the S-transformation of its completion, in floats.

With y = Im tau and q = e^(2 pi i tau), the completion

    Hhat(tau) = H(tau) + 24 sum_(m>0 odd) (-1)^((m-1)/2) erfc(m sqrt(pi y/2)) q^(-m^2/8)

satisfies Hhat(-1/tau) = -sqrt(-i tau) Hhat(tau): H is a mock modular form
of weight 1/2 whose shadow is proportional to eta^3 (Eguchi-Ooguri-Tachikawa,
arXiv:1004.0956; Dabholkar-Murthy-Zagier, arXiv:1208.4074, for the
completion).  The law shares no code with E2, F2, eta^3, theta_1 or mu, H's
other oracles, which are all q-expansions.

The test sums the exact coefficients of ``h_series(120)`` in floats at
fixed points; no float enters ``qmock``.  tau = i is left out: Hhat(i) = 0
at that fixed point of S, so a relative defect means nothing there.  The
erfc sum stops once m sqrt(pi y/2) passes 25, soon after which erfc
underflows and q^(-m^2/8) overflows; each term omitted is below 10^-135.

The tolerance is a first-order bound on the float error, fixed from the
terms alone: a term c e^a, times erfc(x) in the completion, carries a
relative error of at most (|a| + 2x^2 + 16) eps, and a sequential sum of N
terms adds N eps times the sum of their moduli.  H passes with the defect
below 1 % of that bound at every point.  It covers A_0, ..., A_16: raising
any one of them by 1 makes the defect exceed the bound at some point, A_16's
more than 10^4-fold.
"""

import cmath
import math
import sys

import pytest

from qmock.mock import h_series
from qmock.qseries import LATTICE_DEN, Series

EPS = sys.float_info.epsilon
ERFC_CUT = 25.0
ORDER = 120
POINTS = [1.3j, 2.5j, 0.2 + 1.1j, -0.37 + 0.9j, 0.45 + 0.95j, 0.8j, 0.5j, 0.3j, 0.12j]
COVERED = range(17)  # the A_n a unit change of which the test must see

H = h_series(ORDER)


def completed_terms(h, tau):
    """The terms of Hhat(tau), each with its relative float-error factor."""
    terms = []
    for e in h.support():
        a = 2j * math.pi * tau * e / LATTICE_DEN
        terms.append((float(h.coefficient(e)) * cmath.exp(a), abs(a) + 16))
    x = math.sqrt(math.pi * tau.imag / 2)
    for m in range(1, math.floor(ERFC_CUT / x) + 1, 2):
        a = -2j * math.pi * tau * m * m / 8
        value = 24 * (-1) ** ((m - 1) // 2) * math.erfc(m * x) * cmath.exp(a)
        terms.append((value, abs(a) + 2 * (m * x) ** 2 + 16))
    return terms


def defect_over_bound(h, tau):
    """|Hhat(-1/tau) + sqrt(-i tau) Hhat(tau)| over its float-error bound."""
    lhs, rhs = completed_terms(h, -1 / tau), completed_terms(h, tau)
    root = cmath.sqrt(-1j * tau)
    n = len(lhs) + len(rhs)
    bound = EPS * (sum(abs(v) * (f + n) for v, f in lhs)
                   + abs(root) * sum(abs(v) * (f + n) for v, f in rhs))
    return abs(sum(v for v, _ in lhs) + root * sum(v for v, _ in rhs)) / bound


@pytest.mark.parametrize("tau", POINTS, ids=repr)
def test_completed_h_transforms_under_s(tau):
    assert defect_over_bound(H, tau) < 1


@pytest.mark.parametrize("n", COVERED)
def test_a_unit_change_in_a_covered_coefficient_breaks_the_law(n):
    wrong = H + Series.monomial(-3 + LATTICE_DEN * n, 2, prec=H.prec)  # A_n + 1
    assert max(defect_over_bound(wrong, tau) for tau in POINTS) > 1
