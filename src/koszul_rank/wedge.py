"""Exterior-power basis combinatorics for a (2p+1)-dimensional space.

Basis elements of the p-th and (p+1)-st exterior powers are strictly
increasing index tuples from {0, ..., 2p}.  The sign of wedging a single
vector onto a subset follows left multiplication: inserting k in front of
a_{j_1} ^ ... ^ a_{j_p} and sorting costs one transposition per element
smaller than k, i.e. the sign is (-1)^(position of k in the sorted result).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

WedgeIndex = tuple[int, ...]


def wedge_basis(p: int, cardinality: int) -> tuple[WedgeIndex, ...]:
    """All cardinality-c subsets of {0..2p} in lex order, those containing 0 first."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if cardinality not in (p, p + 1):
        raise ValueError("cardinality must be p or p+1")
    return tuple(combinations(range(2 * p + 1), cardinality))


def insert_sign(k: int, subset: WedgeIndex) -> tuple[int, WedgeIndex] | None:
    """Sign and sorted result of wedging index k onto a subset.

    Returns None when k already occurs (the wedge vanishes).
    """
    pos = bisect_left(subset, k)
    if pos < len(subset) and subset[pos] == k:
        return None
    merged = subset[:pos] + (k,) + subset[pos:]
    return (-1 if pos % 2 else 1), merged


def differ_by_one(bigger: WedgeIndex, smaller: WedgeIndex) -> int | None:
    """The unique k with bigger = smaller u {k}, or None if not nested."""
    if len(bigger) != len(smaller) + 1:
        raise ValueError("cardinalities must differ by exactly one")
    extra = None
    j = 0
    for x in bigger:
        if j < len(smaller) and smaller[j] == x:
            j += 1
        elif extra is None:
            extra = x
        else:
            return None
    return extra if j == len(smaller) else None
