"""Exact dense linear algebra over arbitrary-precision rationals.

Everything downstream (flattening ranks, determinant identities, border-rank
certificates) reduces to exact determinants and ranks, so this module is the
workhorse.  Matrix entries are Python ``int`` when integral and
``fractions.Fraction`` only when truly rational, so products of integer
matrices never touch Fraction arithmetic.  Determinants and ranks go through
fraction-free (Bareiss) elimination on an integer-scaled copy of the matrix,
which keeps intermediate entries polynomially sized instead of letting
rational numerators blow up.

The one Bareiss kernel, _bareiss, skips the updates that leave an entry
unchanged.  Every entry it holds after a pivot step is a minor of its input
(Sylvester's identity), so a skipped update is the identity, and every
intermediate entry, pivot, rank and signed determinant is what the dense
update gives.  Rows with a zero in the pivot column stay untouched while the
pivot repeats, entries off the pivot row's nonzero tail only scale, and a
run of equal pivots +-1 (the X_0 = Id blocks of a flattening) needs no
division; its docstring lists the rules.

Beside Bareiss, rank_mod and det_mod row-echelon the same integer-scaled copy
over GF(RANK_PRIME), RANK_PRIME = 2^61 - 1, with modular inverses.  Both are
sound in one direction only.  rank_mod never exceeds the exact rank, so it
may stand in for rank_exact only where a lower rank can only weaken a result
(border-rank certificates), never where it would change a decision
(independence checks).  A nonzero det_mod proves det != 0, but a zero
residue proves nothing: it may only reject a sample, never certify a
vanishing determinant or stand in for a stored exact value.  reduce_mod
and invert_mod map a matrix into GF(RANK_PRIME) and invert it there, which
is how flattening ranks its Schur complement.

rank_mod, det_mod and det_mod_rows share one elimination kernel on plain
int rows, _echelon_mod, which reduces lazily: a column is reduced mod the
prime only to pick its pivot (the first row with a nonzero residue), the
pivot row only once it is chosen, and every other update is a bare
row_i[j] -= f * y with f, y in [0, prime).  Entries stay congruent to the
residues an eagerly reducing elimination holds, so the pivots and row swaps
are the same ones and the results identical; an entry grows by less than
prime^2 per pivot, so it stays below about ncols * 2^122 plus its input
size.  det_mod_rows takes rows directly, so the key-lemma stage evaluators
build their residue grids without an ExactMatrix.

Also provides the two classical determinant identities used throughout:

  schur_block_det    det [[X,Y],[Z,W]] = det(X) det(W - Z X^-1 Y)
  det_rank_update    det(A + U V^t)   = det(A) det(Id + V^t A^-1 U)

All values are immutable; every function is pure and safe to call from
multiple threads, except det_mod_rows, which eliminates the rows it is given
in place.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence, Union

Entry = Union[int, Fraction]

# Mersenne prime 2^61 - 1.  A nonzero integer minor vanishes mod it only when
# the prime divides it, so on random flattenings a rank drop is rare, and it
# can only weaken a bound; likewise a nonzero determinant reads as zero mod it
# only when the prime divides it, which can only reject a sample.
RANK_PRIME = 2**61 - 1


def _coerce(value) -> Entry:
    """The exact value of an entry: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


_INT_ONLY = frozenset({int})


class ExactMatrix:
    """Dense row-major matrix of exact rationals (int or Fraction entries)."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        rows = []
        for row in entries:
            row = tuple(row)
            if not _INT_ONLY.issuperset(map(type, row)):  # the common all-int row skips _coerce
                row = tuple(map(_coerce, row))
            rows.append(row)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self._e = tuple(rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["ExactMatrix"]]) -> "ExactMatrix":
        """Assemble a matrix from a rectangular grid of equally shaped blocks."""
        out: list[list[Entry]] = []
        for block_row in grid:
            height = block_row[0].rows
            for i in range(height):
                out.append([x for block in block_row for x in block.row(i)])
        return cls(out)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[Entry, ...]:
        return self._e[i]

    def __getitem__(self, key: tuple[int, int]) -> Entry:
        i, j = key
        return self._e[i][j]

    def __iter__(self):
        return iter(self._e)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self._e == other._e

    def __hash__(self) -> int:
        return hash(self._e)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("incompatible shapes")
        return ExactMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.shape != other.shape:
            raise ValueError("incompatible shapes")
        return ExactMatrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-a for a in r] for r in self._e])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("incompatible shapes")
            cols = other.transpose()._e
            return ExactMatrix(
                [[sum(map(mul, row, col)) for col in cols] for row in self._e]
            )
        scalar = _coerce(other)
        return ExactMatrix([[a * scalar for a in r] for r in self._e])

    def __rmul__(self, other):
        return self.__mul__(other)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([list(col) for col in zip(*self._e)] if self._e else [])

    def is_zero(self) -> bool:
        return all(a == 0 for r in self._e for a in r)

    def trace(self) -> Entry:
        if not self.is_square:
            raise ValueError("trace of non-square matrix")
        return _coerce(sum(self._e[i][i] for i in range(self.rows)))


def commutator(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    """[X, Y] = XY - YX, for square matrices of equal size."""
    if not (x.is_square and y.is_square and x.shape == y.shape):
        raise ValueError("incompatible shapes")
    return x * y - y * x


def _integer_grid(m: ExactMatrix) -> tuple[list[list[int]], int]:
    """Scale each row to integers; det(m) = det(grid) / scale."""
    grid: list[list[int]] = []
    scale = 1
    for row in m:
        d = math.lcm(*(x.denominator for x in row)) if row else 1
        if d == 1:  # integral entries are stored as int
            grid.append(list(row))
            continue
        scale *= d
        grid.append([x.numerator * (d // x.denominator) for x in row])
    return grid, scale


def _bareiss(a: list[list[int]], ncols: int, stop_at_gap: bool) -> tuple[int, int]:
    """Fraction-free (Bareiss) row echelon of an integer grid, in place.

    Returns (rank, det): det is the last pivot signed by the row swaps,
    which for a square grid is det(grid), and 0 once a column has no pivot.
    With stop_at_gap the elimination ends at that column, which is all a
    determinant needs.  Pivots are the entries of least absolute value.

    The step at pivot prc (row r, column c; previous pivot prev) maps each
    entry x of a lower row to (x * prc - aic * y) / prev, where aic is the
    row's entry in column c and y the pivot row's in column j.  Every entry
    it produces is a minor of the input (Sylvester's identity), so an update
    that would return x itself may be skipped without changing any result.
    Only the pivot row's nonzero tail (the j > c with y != 0) is listed, and:

      aic == 0, prc == prev     the row is left untouched
      aic == 0, prc != prev     only its nonzero entries scale by prc / prev
      aic != 0                  the tail gets the full update; off the tail
                                y == 0, so nonzero entries only scale, and
                                only when prc != prev
      prc == prev == +-1        the tail update is x - aic * y * prev

    Each division still performed is checked to be exact.
    """
    nrows = len(a)
    r = 0
    sign = 1
    prev = 1
    for c in range(ncols):
        piv, best = -1, None
        for i in range(r, nrows):
            v = a[i][c]
            if v != 0:
                size = abs(v)
                if best is None or size < best:
                    best, piv = size, i
        if piv < 0:
            sign = 0
            if stop_at_gap:
                break
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        row_r = a[r]
        prc = row_r[c]
        r += 1
        if r == nrows:  # no row below the last pivot
            prev = prc
            break
        tail = [j for j in range(c + 1, ncols) if row_r[j]]
        scaled = prc != prev
        off_tail = ()
        if scaled and len(tail) < ncols - c - 1:
            off_tail = [j for j in range(c + 1, ncols) if not row_r[j]]
        unit = not scaled and (prc == 1 or prc == -1)
        for i in range(r, nrows):
            row_i = a[i]
            aic = row_i[c]
            if aic:
                row_i[c] = 0
                if unit:
                    f = aic * prev
                    for j in tail:
                        row_i[j] -= f * row_r[j]
                    continue
                for j in tail:
                    quotient, remainder = divmod(row_i[j] * prc - aic * row_r[j], prev)
                    if remainder:  # the fraction-free update divides exactly; anything else is a bug
                        raise ArithmeticError("inexact division in fraction-free elimination")
                    row_i[j] = quotient
                columns = off_tail
            elif scaled:
                columns = range(c + 1, ncols)
            else:
                continue
            for j in columns:
                if x := row_i[j]:
                    quotient, remainder = divmod(x * prc, prev)
                    if remainder:
                        raise ArithmeticError("inexact division in fraction-free elimination")
                    row_i[j] = quotient
        prev = prc
    return r, sign * prev


def det_exact(m: ExactMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if not m.is_square:
        raise ValueError("determinant of non-square matrix")
    if m.rows == 0:
        return Fraction(1)
    grid, scale = _integer_grid(m)
    return Fraction(_bareiss(grid, m.cols, stop_at_gap=True)[1], scale)


def rank_exact(m: ExactMatrix) -> int:
    """Exact rank over the rationals (fraction-free row echelon)."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return _bareiss(_integer_grid(m)[0], m.cols, stop_at_gap=False)[0]


def _echelon_mod(a: list[list[int]], ncols: int, prime: int, stop_at_gap: bool) -> tuple[int, int]:
    """Row echelon over GF(prime) of a grid of integer rows, in place.

    Returns (rank, det): det is the signed product of the pivots mod prime,
    which for a square grid is det(grid) mod prime, and 0 once a column has
    no pivot.  With stop_at_gap the elimination ends at that column, which
    is all a determinant needs.  Reduction is lazy (see the module
    docstring): only pivot columns and the chosen pivot row are reduced.
    """
    nrows = len(a)
    r = 0
    det = 1
    for c in range(ncols):
        if r == nrows:
            break
        column = [a[i][c] % prime for i in range(r, nrows)]
        piv = next((k for k, v in enumerate(column) if v), -1)
        if piv < 0:
            det = 0
            if stop_at_gap:
                break
            continue
        if piv:
            a[r], a[r + piv] = a[r + piv], a[r]
            column[0], column[piv] = column[piv], column[0]
            det = -det
        row_r = a[r]
        det = det * column[0] % prime
        inv = pow(column[0], -1, prime)
        # flattenings are sparse: update only rows with a nonzero residue in
        # column c, and in them only the columns where the pivot row's
        # residue is nonzero (column c itself is never read again)
        tail = [(j, y) for j in range(c + 1, ncols) if (y := row_r[j] % prime)]
        for k in range(1, len(column)):
            if column[k]:
                f = column[k] * inv % prime
                row_i = a[r + k]
                for j, y in tail:
                    row_i[j] -= f * y
        r += 1
    return r, det


def rank_mod(m: ExactMatrix, prime: int = RANK_PRIME) -> int:
    """Rank over GF(prime) of the row-scaled integer copy of m.

    Never exceeds rank_exact(m): a minor that vanishes over the integers also
    vanishes mod prime, so an unlucky prime can only under-report the rank.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    return _echelon_mod(_integer_grid(m)[0], m.cols, prime, stop_at_gap=False)[0]


def det_mod(m: ExactMatrix, prime: int = RANK_PRIME) -> int:
    """det of the row-scaled integer copy of m, reduced into [0, prime).

    Sound in one direction only: a nonzero residue proves det(m) != 0 (the
    row scale is a nonzero integer), while a zero residue only says that
    prime divides the scaled determinant.  For an integer matrix the result
    is det_exact(m) % prime.
    """
    if not m.is_square:
        raise ValueError("determinant of non-square matrix")
    return det_mod_rows(_integer_grid(m)[0], prime)


def det_mod_rows(rows: list[list[int]], prime: int = RANK_PRIME) -> int:
    """det of a square grid of integer rows, reduced into [0, prime).

    The entry point for callers that already hold residues or integers as
    plain lists, so no ExactMatrix is built; the rows are eliminated in place.
    """
    return _echelon_mod(rows, len(rows), prime, stop_at_gap=True)[1]


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse (Gauss-Jordan); raises ValueError on singular input."""
    if not m.is_square:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    a = [list(m.row(i)) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), -1)
        if piv < 0:
            raise ValueError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        if a[c][c] != 1:  # a unit pivot keeps integer rows integral
            inv_p = Fraction(1) / a[c][c]  # 1 / int would be a float
            a[c] = [x * inv_p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return ExactMatrix([row[n:] for row in a])


def reduce_mod(m: ExactMatrix, prime: int = RANK_PRIME) -> Optional[ExactMatrix]:
    """Entrywise image of m in GF(prime), entries in [0, prime).

    None when prime divides a denominator, where m has no image.
    """
    if any(x.denominator % prime == 0 for row in m for x in row):
        return None

    def residue(x: Entry) -> int:
        if type(x) is int:
            return x % prime
        return x.numerator * pow(x.denominator, -1, prime) % prime

    return ExactMatrix([[residue(x) for x in row] for row in m])


def invert_mod(m: ExactMatrix, prime: int = RANK_PRIME) -> Optional[ExactMatrix]:
    """Inverse over GF(prime) of an integer matrix (Gauss-Jordan).

    Entries of the result lie in [0, prime); None when m is singular mod
    prime, which an integer matrix of nonzero determinant can still be.
    """
    if not m.is_square:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    a = [[x % prime for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), -1)
        if piv < 0:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, prime)
        row_c = a[c] = [x * inv % prime for x in a[c]]
        for i in range(n):
            f = a[i][c]
            if i != c and f:
                a[i] = [(x - f * y) % prime for x, y in zip(a[i], row_c)]
    return ExactMatrix([row[n:] for row in a])


def schur_block_det(x: ExactMatrix, y: ExactMatrix, z: ExactMatrix, w: ExactMatrix) -> Fraction:
    """det of [[X,Y],[Z,W]] computed as det(X) * det(W - Z X^-1 Y).

    X must be invertible (n x n); Y is n x m, Z is m x n, W is m x m.
    Equals det_exact of the assembled (n+m) x (n+m) block matrix.
    """
    n, m = x.rows, w.rows
    if not (x.is_square and w.is_square and y.shape == (n, m) and z.shape == (m, n)):
        raise ValueError("incompatible shapes")
    try:
        x_inv = invert(x)
    except ValueError:
        raise ValueError("Schur pivot singular") from None
    return det_exact(x) * det_exact(w - z * x_inv * y)


def det_rank_update(a: ExactMatrix, u: ExactMatrix, v: ExactMatrix) -> Fraction:
    """det(A + U V^t) computed as det(A) * det(Id + V^t A^-1 U).

    A must be invertible (n x n); U and V are n x m.
    """
    n = a.rows
    if not (a.is_square and u.rows == n and v.rows == n and u.cols == v.cols):
        raise ValueError("incompatible shapes")
    try:
        a_inv = invert(a)
    except ValueError:
        raise ValueError("matrix determinant lemma pivot singular") from None
    m = u.cols
    return det_exact(a) * det_exact(ExactMatrix.identity(m) + v.transpose() * a_inv * u)


def child_seed(seed: int, *tags: int) -> int:
    """Deterministic 63-bit seed derived from a root seed and integer tags."""
    out = seed & (2**63 - 1)
    for t in tags:
        out = (out * 6364136223846793005 + t * 1442695040888963407 + 1) % (2**63)
    return out


def random_int_matrix(rng: random.Random, rows: int, cols: int, lo: int = -9, hi: int = 9) -> ExactMatrix:
    return ExactMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> ExactMatrix:
    """Random integer matrix, resampled until nonsingular.

    A nonzero det_mod proves the sample nonsingular; only a zero residue
    needs det_exact to decide, so the samples kept are the same.
    """
    while True:
        m = random_int_matrix(rng, n, n, lo, hi)
        if det_mod(m) or det_exact(m) != 0:
            return m


def _format_rational(x: Entry) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def matrix_to_json(m: ExactMatrix) -> dict:
    """Matrix literal: {"rows": r, "cols": c, "entries": [["p/q", ...], ...]}."""
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[_format_rational(x) for x in row] for row in m],
    }


def matrix_from_json(obj: dict) -> ExactMatrix:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = obj["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("matrix literal shape mismatch")
    return ExactMatrix([[Fraction(str(x)) for x in row] for row in entries])


def vector_to_json(v: Iterable[Fraction]) -> list[str]:
    return [_format_rational(_coerce(x)) for x in v]


def vector_from_json(items: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(str(x)) for x in items)
