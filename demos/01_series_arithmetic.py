"""A walk through the exact series engine.

Every object is a truncated Laurent series with exponents on the
lattice (1/24)Z and rational coefficients.  Precision is an
explicit exponent bound carried through every operation, so a printed
coefficient is always certified, never extrapolated.
"""

import json

from qmock import Series

# Build series from (lattice exponent, coefficient) pairs.  Lattice
# units are 24ths of a power of q, so q itself sits at index 24 and
# q^(1/8) at index 3.
P = 24 * 8
one_plus_q = Series.from_pairs([(0, 1), (24, 1)], prec=P)
one_minus_q = Series.from_pairs([(0, 1), (24, -1)], prec=P)

print("(1+q) + (1-q) =", one_plus_q + one_minus_q)
print("(1+q) * (1-q) =", one_plus_q * one_minus_q)

# Inversion is exact: 1/(1-q) is the geometric series.
print("1/(1-q)       =", one_minus_q.invert())

# Fractional exponents are first-class.  This is the square of the
# first two terms of a theta null value:
theta_head = Series.from_pairs([(3, 2), (27, 2)], prec=P)
print("(2q^(1/8) + 2q^(9/8))^2 =", theta_head.pow_int(2))

# The logarithmic derivative q d/dq multiplies each term by its
# exponent, kept as an exact rational.
print("q d/dq of q^(-1/8)      =", Series.monomial(-3, 1, prec=24).q_derive())

# Substituting q -> q^(1/8) divides exponents by 8; anything that would
# leave the lattice raises LatticeError instead of rounding.
s = Series.from_pairs([(-24, 1), (7 * 24, 27)], prec=24 * 8)
print("q -> q^(1/8) rescale     =", s.rescale_exponents(1, 8))

# The JSON wire format round-trips bit for bit; integers travel as
# decimal strings so arbitrary precision survives any parser.
blob = json.dumps(theta_head.to_json_obj())
assert Series.from_json_obj(json.loads(blob)) == theta_head
print("JSON round-trip: exact")
