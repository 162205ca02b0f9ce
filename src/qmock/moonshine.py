"""Decompositions of the H(tau) coefficients into M24 irrep dimensions.

The module checks existence and validity of decompositions only; which
decomposition is the character-theoretically meaningful one is out of
scope.  Witnesses are multiplicity vectors over the 26 dimensions in
nondecreasing order (repeated dimensions are distinct slots), and ties
are broken by the lexicographically smallest vector, which makes every
output deterministic.

Subset witnesses come from a meet-in-the-middle search (Horowitz-Sahni)
over the subset-sum tables of the two halves of the dimension list: each
distinct sum mapped to its smallest subset mask, built by doubling, so
only the winning pair of masks is turned into a multiplicity vector.  The
tables do not depend on the target, so the first search builds them and
later searches reuse them.  Counts come from a bounded-multiplicity
dynamic program that drops every state whose remaining target exceeds
what the remaining slots can reach.
"""

from collections import namedtuple
from functools import lru_cache

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


def _subset_sums(dims):
    """Each distinct subset sum of ``dims`` mapped to its smallest mask, in
    ascending mask order.  Bit i of a mask, counted from the most significant
    of len(dims) bits, selects dims[i], so ascending masks are ascending lex
    order.  Built by doubling: every mask with the new highest bit comes
    after every mask without it, so a sum already met keeps its mask."""
    best = {0: 0}
    bit = 1
    for d in reversed(dims):
        for s, mask in list(best.items()):
            best.setdefault(s + d, mask | bit)
        bit <<= 1
    return best


def _bits(mask, width):
    """The multiplicity tuple of a subset mask, most significant bit first."""
    return tuple((mask >> (width - 1 - i)) & 1 for i in range(width))


@lru_cache(maxsize=1)
def _tables():
    """The subset-sum tables of the two halves of the dimensions:
    target-independent, so built by the first search, not at import, and
    kept."""
    half = len(M24_DIMENSIONS) // 2
    return _subset_sums(M24_DIMENSIONS[:half]), _subset_sums(M24_DIMENSIONS[half:])


def decompose_distinct(target):
    """A subset of the dimensions summing to ``target``, or None.

    Meet-in-the-middle (Horowitz-Sahni) over the subset-sum tables of the
    two 13-element halves; among all witnesses the lexicographically
    smallest multiplicity vector is returned (zeros preferred in early
    slots, i.e. larger parts win).
    """
    half = len(M24_DIMENSIONS) // 2
    width = len(M24_DIMENSIONS) - half
    left, right = _tables()
    for s, mask in left.items():  # ascending masks, so the first hit is the smallest
        rest = right.get(target - s)
        if rest is not None:
            return DecompositionWitness(_bits(mask, half) + _bits(rest, width))
    return None


def decompose_bounded(target, multiplicity_cap, max_witnesses=4):
    """Exact count of multiplicity vectors with entries <= cap summing to
    ``target``, plus up to ``max_witnesses`` witnesses in lex order."""
    if target < 0:
        return 0, []
    dims = M24_DIMENSIONS
    n = len(dims)
    reach = [0] * (n + 1)  # reach[i]: the most that slots i.. can add up to
    for i in range(n - 1, -1, -1):
        reach[i] = reach[i + 1] + multiplicity_cap * dims[i]

    @lru_cache(maxsize=None)
    def ways(i, remaining):
        if remaining == 0 and i == n:
            return 1
        if i == n or remaining < 0 or remaining > reach[i]:
            return 0
        d = dims[i]
        return sum(
            ways(i + 1, remaining - t * d)
            for t in range(min(multiplicity_cap, remaining // d) + 1)
        )

    count = ways(0, target)
    witnesses = []

    def walk(i, remaining, prefix):
        if len(witnesses) >= max_witnesses:
            return
        if i == n:
            if remaining == 0:
                witnesses.append(DecompositionWitness(tuple(prefix)))
            return
        d = dims[i]
        for t in range(min(multiplicity_cap, remaining // d) + 1):
            if ways(i + 1, remaining - t * d):
                walk(i + 1, remaining - t * d, prefix + [t])
                if len(witnesses) >= max_witnesses:
                    return

    if count and max_witnesses > 0:
        walk(0, target, [])
    ways.cache_clear()
    return count, witnesses


#: the explicit two- and six-part decompositions of A_6 and A_7
A6_PARTS = (3520, 10395)
A7_PARTS = (1771, 2024, 5313, 5544, 5796, 10395)
