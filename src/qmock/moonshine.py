"""Decompositions of the H(tau) coefficients into M24 irrep dimensions.

The module checks existence and validity of decompositions only; which
decomposition is the character-theoretically meaningful one is out of
scope.  Witnesses are multiplicity vectors over the 26 dimensions in
nondecreasing order (repeated dimensions are distinct slots), and ties
are broken by the lexicographically smallest vector, which makes every
output deterministic.
"""

from dataclasses import dataclass
from functools import lru_cache

from .mock import a_coefficients

#: dimensions of the 26 irreducible representations of M24, ascending
M24_DIMENSIONS = (
    1, 23, 45, 45, 231, 231, 252, 253, 483, 770, 770, 990, 990,
    1035, 1035, 1035, 1265, 1771, 2024, 2277, 3312, 3520, 5313,
    5544, 5796, 10395,
)


@dataclass(frozen=True)
class DecompositionWitness:
    """Multiplicities over M24_DIMENSIONS whose dot product is the target."""

    multiplicities: tuple

    def dims(self, dimensions=M24_DIMENSIONS):
        out = []
        for mult, d in zip(self.multiplicities, dimensions):
            out.extend([d] * mult)
        return tuple(out)

    def total(self, dimensions=M24_DIMENSIONS):
        return sum(m * d for m, d in zip(self.multiplicities, dimensions))


def _half_subsets(dims):
    """All subsets of one half as (lex-ordered multiplicity tuple, sum)."""
    n = len(dims)
    out = []
    for mask in range(1 << n):
        # bit i (from the most significant) is the multiplicity of dims[i],
        # so ascending mask order is ascending lexicographic order
        vec = tuple((mask >> (n - 1 - i)) & 1 for i in range(n))
        out.append((vec, sum(v * d for v, d in zip(vec, dims))))
    return out


def decompose_distinct(target, dimensions=M24_DIMENSIONS):
    """A subset of the dimensions summing to ``target``, or None.

    Meet-in-the-middle over the two 13-element halves; among all
    witnesses the lexicographically smallest multiplicity vector is
    returned (zeros preferred in early slots, i.e. larger parts win).
    """
    half = len(dimensions) // 2
    left = dimensions[:half]
    right = dimensions[half:]
    best_right = {}
    for vec, s in _half_subsets(right):  # ascending lex: first seen is smallest
        if s not in best_right:
            best_right[s] = vec
    for vec, s in _half_subsets(left):
        rest = best_right.get(target - s)
        if rest is not None:
            return DecompositionWitness(vec + rest)
    return None


def decompose_bounded(target, multiplicity_cap, max_witnesses=4,
                      dimensions=M24_DIMENSIONS):
    """Exact count of multiplicity vectors with entries <= cap summing to
    ``target``, plus up to ``max_witnesses`` witnesses in lex order."""
    if target < 0:
        return 0, []
    n = len(dimensions)

    @lru_cache(maxsize=None)
    def ways(i, remaining):
        if remaining == 0 and i == n:
            return 1
        if i == n or remaining < 0:
            return 0
        d = dimensions[i]
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
        d = dimensions[i]
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


def report_json_obj(target, distinct=True, cap=None, max_witnesses=4):
    """The machine-readable decomposition report for one target."""
    obj = {
        "target": target,
        "distinct_witness": None,
        "bounded_count": None,
        "witnesses": [],
    }
    if distinct:
        w = decompose_distinct(target)
        obj["distinct_witness"] = list(w.dims()) if w is not None else None
    if cap is not None:
        count, witnesses = decompose_bounded(target, cap, max_witnesses)
        obj["bounded_count"] = str(count)
        obj["witnesses"] = [list(w.multiplicities) for w in witnesses]
    return obj
