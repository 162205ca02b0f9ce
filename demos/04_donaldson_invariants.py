"""From mock modular forms to the SO(3) Donaldson invariants of CP^2.

The constant-term functional D_{m,2n} pairs a theta-quotient kernel
with the weight-raising bracket of a mock modular form.  Feeding either
Q+(tau/8) or H(tau)/12 produces the same rational numbers Phi_{m,2n},
and an independent product formula in the 8tau variable reproduces them
a third way.
"""

from qmock import column_extract, generating_function, kernel_check
from qmock.cli import main
from qmock.uplane import ROUTE_FINAL, ROUTE_H12, ROUTE_QPLUS, donaldson_phi

# One invariant, three routes.
for route in (ROUTE_QPLUS, ROUTE_H12, ROUTE_FINAL):
    print(f"Phi_(0,0) via {route}: {donaldson_phi(0, 0, route)}")

# The functional is a finite rational linear combination of the graded
# coefficients H_0, H_1, ... of whatever mock it is fed.  These columns
# are recovered symbolically by feeding unit vectors.
for m, n in ((0, 0), (1, 1), (0, 2)):
    col = column_extract(m, n, (m + n) // 2 + 1)
    terms = " + ".join(f"({c})*H_{k}" for k, c in enumerate(col))
    print(f"D_({m},{2 * n}) = {terms}")

# The kernel theorem: the functional annihilates Q+(tau/8) - H/12.
print("kernel values (m+n <= 4):",
      [str(kernel_check(m, t - m)) for t in range(5) for m in range(t + 1)])

# The full table with the route cross-check, as the CLI prints it, and
# the generating function Z(p,S) assembled from it.
main(["table", "--max", "4", "--format", "csv"])
print(generating_function(4)[1])
