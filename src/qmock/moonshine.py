"""Decompositions of the H(tau) coefficients into M24 irrep dimensions.

The module checks existence and validity of decompositions only; which
decomposition is the character-theoretically meaningful one is out of
scope.  Witnesses are multiplicity vectors over the 26 dimensions in
nondecreasing order (repeated dimensions are distinct slots), and ties
are broken by the lexicographically smallest vector, which makes every
output deterministic.

Each search builds one table and keeps nothing: bit r of ``reach[i]`` is
set when the dimensions i.. with multiplicities <= cap can sum to r.
Witnesses are picked slot by slot, smallest multiplicity first, keeping a
choice only when the slots after it still reach the remainder, so they
come out in lex order and every branch taken ends in a witness.  Counts
are the x^target coefficient of prod_d (1 + x^d + ... + x^(cap d)), one
Python integer with one digit per exponent.
"""

from collections import namedtuple

#: dimensions of the 26 irreducible representations of M24, ascending
M24_DIMENSIONS = (
    1, 23, 45, 45, 231, 231, 252, 253, 483, 770, 770, 990, 990,
    1035, 1035, 1035, 1265, 1771, 2024, 2277, 3312, 3520, 5313,
    5544, 5796, 10395,
)


class DecompositionWitness(namedtuple("DecompositionWitness", "multiplicities")):
    """Multiplicities over M24_DIMENSIONS whose dot product is the target."""

    __slots__ = ()

    def dims(self):
        out = []
        for mult, d in zip(self.multiplicities, M24_DIMENSIONS):
            out.extend([d] * mult)
        return tuple(out)

    def total(self):
        return sum(m * d for m, d in zip(self.multiplicities, M24_DIMENSIONS))


def _reach(target, cap):
    """The suffix-reachability table of ``target`` at ``cap``, or None when
    no vector reaches ``target``: bit r <= target of ``reach[i]`` is set when
    slots i.. with multiplicities <= cap can sum to r."""
    dims = M24_DIMENSIONS
    if not 0 <= target <= cap * sum(dims):
        return None
    low = (1 << (target + 1)) - 1  # bits 0..target
    reach = [1]
    for d in reversed(dims):
        after = row = reach[-1]
        # OR, never add: two shifts may set one bit, and the carry would set
        # a bit that no sum reaches
        for t in range(1, min(cap, target // d) + 1):
            row |= after << (t * d)
        reach.append(row & low)
    reach.reverse()
    return reach if reach[0] >> target & 1 else None


def _witnesses(reach, cap, i, remaining, limit):
    """The first ``limit`` multiplicity vectors, in lex order, of slots i..
    summing to ``remaining``, which ``reach[i]`` reaches: every branch taken
    ends in one, so the search stops after ``limit`` branches."""
    dims = M24_DIMENSIONS
    if i == len(dims):
        return [()]
    out = []
    for t in range(min(cap, remaining // dims[i]) + 1):
        rest = remaining - t * dims[i]
        if len(out) < limit and reach[i + 1] >> rest & 1:
            out += [(t,) + tail for tail in _witnesses(reach, cap, i + 1, rest, limit - len(out))]
    return out


def decompose_distinct(target):
    """A subset of the dimensions summing to ``target``, or None: the
    lexicographically smallest multiplicity vector (zeros preferred in
    early slots, i.e. larger parts win)."""
    reach = _reach(target, 1)
    if reach is None:
        return None
    return DecompositionWitness(_witnesses(reach, 1, 0, target, 1)[0])


def decompose_bounded(target, multiplicity_cap, max_witnesses=4):
    """Exact count of multiplicity vectors with entries <= cap summing to
    ``target``, plus up to ``max_witnesses`` witnesses in lex order."""
    cap = multiplicity_cap
    reach = _reach(target, cap)
    if reach is None:
        return 0, []
    # prod_d (1 + x^d + ... + x^(cap d)) to x^target, one digit per exponent;
    # a digit never overflows, as no coefficient exceeds (cap + 1)^26
    width = ((cap + 1) ** len(M24_DIMENSIONS)).bit_length()
    low = (1 << (width * (target + 1))) - 1  # digits 0..target
    poly = 1
    for d in M24_DIMENSIONS:
        poly = sum(poly << (width * t * d) for t in range(min(cap, target // d) + 1)) & low
    found = _witnesses(reach, cap, 0, target, max_witnesses)
    return poly >> (width * target), [DecompositionWitness(w) for w in found]


#: the explicit two- and six-part decompositions of A_6 and A_7
A6_PARTS = (3520, 10395)
A7_PARTS = (1771, 2024, 5313, 5544, 5796, 10395)
