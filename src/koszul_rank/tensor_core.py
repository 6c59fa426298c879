"""Order-3 tensors over the rationals and the matrix multiplication tensor.

A tensor lives in A (x) B (x) C with sparse coordinate storage.  The module
covers what the rest of the package needs: building the matrix multiplication
tensor, contracting against covectors of A*, extracting ordered slice
families, splitting off an identity factor (T = T' (x) Id_m in the B and C
factors, as for every matrix multiplication tensor), and verifying rank-one
decompositions exactly.

Pair indices are flattened row-major everywhere: (i, j) -> i * cols + j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Sequence

from .exact_linalg import (
    Entry,
    ExactMatrix,
    _coerce,
    _format_rational,
    _independent_rows,
    vector_from_json,
    vector_to_json,
)


class Tensor3:
    """Sparse order-3 tensor of int or Fraction entries; no zeros or duplicates stored."""

    __slots__ = ("dims", "entries")

    def __init__(self, dims: tuple[int, int, int], entries):
        a, b, c = dims
        if a < 1 or b < 1 or c < 1:
            raise ValueError("zero dimension")
        self.dims = (a, b, c)
        clean: dict[tuple[int, int, int], Entry] = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for key, value in items:
            i, j, k = key
            if not (0 <= i < a and 0 <= j < b and 0 <= k < c):
                raise ValueError(f"coordinate {key} out of range for dims {dims}")
            if key in clean:
                raise ValueError(f"duplicate coordinate {key}")
            value = _coerce(value)
            if value != 0:
                clean[key] = value
        self.entries = clean

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_b(self) -> int:
        return self.dims[1]

    @property
    def dim_c(self) -> int:
        return self.dims[2]

    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor3)
            and self.dims == other.dims
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"Tensor3(dims={self.dims}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class RankOneTerm:
    """One summand a (x) b (x) c of a decomposition."""

    a: tuple[Entry, ...]
    b: tuple[Entry, ...]
    c: tuple[Entry, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(_coerce(x) for x in self.a))
        object.__setattr__(self, "b", tuple(_coerce(x) for x in self.b))
        object.__setattr__(self, "c", tuple(_coerce(x) for x in self.c))
        if not any(self.a) or not any(self.b) or not any(self.c):
            raise ValueError("rank-one factors must be nonzero")


@dataclass(frozen=True)
class SliceFamily:
    """Ordered contractions X_0, ..., X_2p of a tensor, all of one shape."""

    p: int
    b: int
    c: int
    slices: tuple[ExactMatrix, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if len(self.slices) != 2 * self.p + 1:
            raise ValueError("need exactly 2p+1 slices")
        if any(s.shape != (self.b, self.c) for s in self.slices):
            raise ValueError("slices must share one shape")


def matmul_tensor(n: int, l: int, m: int) -> Tensor3:
    """The n x l by l x m matrix multiplication tensor.

    Unit entry at ((i,j), (j,k), (i,k)) for i < n, j < l, k < m, under
    row-major pair flattening; dims are (n*l, l*m, n*m).
    """
    if n < 1 or l < 1 or m < 1:
        raise ValueError("zero dimension")
    entries = {}
    for i in range(n):
        for j in range(l):
            for k in range(m):
                entries[(i * l + j, j * m + k, i * m + k)] = 1
    return Tensor3((n * l, l * m, n * m), entries)


def identity_factor(tensor: Tensor3) -> tuple[Tensor3, int]:
    """The largest m with T = T' (x) Id_m in the B and C factors, and that T'.

    m runs over the divisors of gcd(dimB, dimC) from the largest down and is
    the first for which T[a, b'm+s, c'm+t] = T'[a, b', c'] * delta(s, t)
    holds at every entry; T' has dims (dimA, dimB/m, dimC/m).  Every
    contraction then factors as contract_a(T, alpha) = contract_a(T', alpha)
    (x) Id_m.  matmul_tensor(n, l, m) factors with this m, its reduced slices
    being the l x n matrices alpha^T.  Each candidate costs O(nnz) and stops
    at the first mismatch; a tensor that does not factor gives (T, 1).
    """
    a, b, c = tensor.dims
    g = math.gcd(b, c)
    divisors = {d for i in range(1, math.isqrt(g) + 1) if g % i == 0 for d in (i, g // i)}
    for m in sorted(divisors - {1}, reverse=True):
        # T' is read off the s = t = 0 entries; every entry must then match it
        # with s == t, and m copies of each T' entry account for all of T
        reduced = {
            (i, j // m, k // m): v
            for (i, j, k), v in tensor.entries.items()
            if j % m == 0 and k % m == 0
        }
        if len(tensor.entries) != m * len(reduced):
            continue
        if all(
            j % m == k % m and reduced.get((i, j // m, k // m)) == v
            for (i, j, k), v in tensor.entries.items()
        ):
            return Tensor3((a, b // m, c // m), reduced), m
    return tensor, 1


def contract_a(tensor: Tensor3, alpha: Sequence) -> ExactMatrix:
    """Contract the A factor against a covector: (j,k) entry sum_i alpha_i T[i,j,k]."""
    coords = [_coerce(x) for x in alpha]
    if len(coords) != tensor.dim_a:
        raise ValueError("length mismatch")
    grid = [[0] * tensor.dim_c for _ in range(tensor.dim_b)]
    for (i, j, k), value in tensor.entries.items():
        if coords[i]:
            grid[j][k] += coords[i] * value
    return ExactMatrix(grid)


def slice_family(tensor: Tensor3, alphas: Sequence[Sequence]) -> SliceFamily:
    """Contract against 2p+1 linearly independent covectors, in order."""
    count = len(alphas)
    if count < 3 or count % 2 != 1:
        raise ValueError("need an odd number 2p+1 >= 3 of covectors")
    stacked = ExactMatrix([list(a) for a in alphas])
    if stacked.cols != tensor.dim_a:
        raise ValueError("length mismatch")
    if not _independent_rows(stacked):
        raise ValueError("subspace not (2p+1)-dimensional")
    slices = tuple(contract_a(tensor, a) for a in alphas)
    return SliceFamily((count - 1) // 2, tensor.dim_b, tensor.dim_c, slices)


def verify_decomposition(tensor: Tensor3, terms: Sequence[RankOneTerm]) -> bool:
    """Exact entrywise check that sum_t a_t (x) b_t (x) c_t equals the tensor."""
    a, b, c = tensor.dims
    for t in terms:
        if len(t.a) != a or len(t.b) != b or len(t.c) != c:
            raise ValueError("term shape mismatch")
    residual = dict(tensor.entries)
    for t in terms:
        for i, ai in enumerate(t.a):
            if not ai:
                continue
            for j, bj in enumerate(t.b):
                if not bj:
                    continue
                ab = ai * bj
                for k, ck in enumerate(t.c):
                    if not ck:
                        continue
                    key = (i, j, k)
                    value = residual.get(key, 0) - ab * ck
                    if value:
                        residual[key] = value
                    elif key in residual:
                        del residual[key]
    return not residual


def tensor_to_json(tensor: Tensor3) -> dict:
    """Tensor file format: {"dims": [a,b,c], "entries": [[i,j,k,"p/q"], ...]}."""
    entries = [
        [i, j, k, _format_rational(v)]
        for (i, j, k), v in sorted(tensor.entries.items())
    ]
    return {"dims": list(tensor.dims), "entries": entries}


def tensor_from_json(obj: dict) -> Tensor3:
    dims = tuple(int(d) for d in obj["dims"])
    if len(dims) != 3:
        raise ValueError("dims must have length 3")
    entries = [((int(i), int(j), int(k)), Fraction(str(v))) for i, j, k, v in obj["entries"]]
    return Tensor3(dims, entries)


def decomposition_to_json(terms: Sequence[RankOneTerm]) -> list[dict]:
    return [
        {"a": vector_to_json(t.a), "b": vector_to_json(t.b), "c": vector_to_json(t.c)}
        for t in terms
    ]


def decomposition_from_json(items: Sequence[dict]) -> list[RankOneTerm]:
    return [
        RankOneTerm(vector_from_json(t["a"]), vector_from_json(t["b"]), vector_from_json(t["c"]))
        for t in items
    ]


def strassen_decomposition() -> list[RankOneTerm]:
    """The classical seven-term decomposition of the 2x2 multiplication tensor.

    Shipped as a data file; callers should validate it with
    verify_decomposition before relying on it.
    """
    import json

    text = resources.files("koszul_rank.data").joinpath("strassen_2x2.json").read_text()
    return decomposition_from_json(json.loads(text))
