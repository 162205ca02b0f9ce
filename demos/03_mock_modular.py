"""The mock-modular layer: Appell-Lerch sums, H(tau), and Q+.

H(tau) is assembled purely from the Appell-Lerch sum mu at the three
half-periods 1/2, (1+tau)/2, tau/2; the famous coefficients 45, 231,
770, ... come out of exact arithmetic, not a lookup table.
"""

from fractions import Fraction

from qmock import (
    a_coefficients,
    h_series,
    mock_theta_m,
    mu_half_period,
    q_plus,
    q_plus_rescaled,
)
from qmock.forms import V_HALF, V_ONE_PLUS_TAU_HALF, V_TAU_HALF

# The three specialisations of mu.  Each is real: the prefactor
# i * e^(pi i r) and theta_1's phase are the same power of i and cancel.
for v, label in ((V_HALF, "1/2"), (V_ONE_PLUS_TAU_HALF, "(1+tau)/2"),
                 (V_TAU_HALF, "tau/2")):
    mu = mu_half_period(v, 3)
    print(f"mu({label}; tau) =", mu)

# H(tau) = -8 times their sum: the leading term is -2 q^(-1/8) and the
# integer coefficients A_n sit at integer offsets above it.
h = h_series(9)
print("H(tau) =", h.truncate(24 * 4))
print("A_n    =", a_coefficients(8))

# All half-odd graded coefficients vanish: H = q^(-1/8) sum H_k q^(k/2)
# with H_odd = 0.
assert all(not h.coefficient(-3 + 12 * k) for k in range(1, 17, 2))
print("odd graded coefficients: all zero")

# The companion series: a mock theta sum supported on 7 mod 8 ...
print("M(q) =", mock_theta_m(40))

# ... assembled with two sieved eta quotients into Q+(tau), supported on
# exponents 3 mod 4, and rescaled to the 1/8 lattice.
qp = q_plus(32)
assert all((e // 24) % 4 == 3 for e in qp.support())
print("Q+(tau)   =", qp.truncate(24 * 24))
print("Q+(tau/8) =", q_plus_rescaled(3))

# Q+(tau/8) and H/12 share their modular defect: the difference has
# small denominators and is annihilated by the invariant functional.
diff = q_plus_rescaled(5) - h.scale(Fraction(1, 12))
dens = {diff.coefficient(e).denominator for e in diff.support()}
print("denominators of Q+(tau/8) - H/12:", sorted(dens))
