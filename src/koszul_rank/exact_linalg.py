"""Exact dense linear algebra over arbitrary-precision rationals.

Everything downstream (flattening ranks, determinant identities, border-rank
certificates) reduces to exact determinants and ranks, so this module is the
workhorse.  An ExactMatrix stores int rows over one positive denominator,
in lowest terms (the gcd of the denominator and all entries is 1), and
reads an entry back as an int when integral, else a Fraction.  A product is
one integer product of the two grids over the product of the denominators;
sums and block assembly first bring their operands to the lcm of the
denominators.  Determinants and ranks go through fraction-free (Bareiss)
elimination of an integer grid, each row times the lcm of its own entries'
denominators, which keeps intermediate entries polynomially sized instead of
letting rational numerators blow up; invert runs the same fraction-free
update as a Gauss-Jordan elimination.

The one Bareiss kernel, _bareiss, skips the updates that leave an entry
unchanged.  Every entry it holds after a pivot step is a minor of its input
(Sylvester's identity), so a skipped update is the identity, and every
intermediate entry, pivot, rank and signed determinant is what the dense
update gives.  Rows with a zero in the pivot column stay untouched while the
pivot repeats, entries off the pivot row's nonzero tail only scale, and a
run of equal pivots +-1 (the X_0 = Id blocks of a flattening) needs no
division; its docstring lists the rules.

Beside Bareiss sits the one residue core on plain int rows mod a prime
(default RANK_PRIME = 2^61 - 1): reduce_mod maps a matrix to its entrywise
residues, invert_mod, mul_mod and commutator_mod work on the rows,
linear_map_mod tabulates an affine map of one n x n grid as packed ints, and
rank_mod_rows and det_mod_rows row-echelon them.  mul_mod and commutator_mod
share one packed-row kernel, _product_mod: each row of the right factor is
reduced and packed into one int, residue k at bit k * bits with
bits = 2 bits(prime) + bits(number of terms), so an output row is one C-level
sum of the reduced left row times the packed rows, read back by shifting and
masking.  A slot sums at most terms * (prime - 1)^2 < 2^bits, so no slot
carries into the next.  The commutator is one such product, row i being
[X[i], -Y[i]] times Y stacked above X.  rank_mod and det_mod are
the ExactMatrix entry points on its integer-scaled copy.  Both are sound in
one direction only.  rank_mod never exceeds the exact rank, so it may stand
in for rank_exact only where a lower rank can only weaken a result
(border-rank certificates), never where a short rank would change a
decision: _independent_rows takes full rank mod the prime as proof of
independence and decides a short one with rank_exact.  A nonzero det_mod
proves det != 0, but a zero residue proves nothing: it may only reject a
sample, never certify a vanishing determinant or stand in for a stored
exact value.

All four eliminate with one kernel, _echelon_mod, which reduces lazily: a
column is reduced mod the prime only to pick its pivot (the first row with a
nonzero residue), the pivot row only once it is chosen, and every other
update is a bare row_i[j] -= f * y with f, y in [0, prime).  Entries stay
congruent to the residues an eagerly reducing elimination holds, so the
pivots and row swaps are the same ones and the results identical; an entry
grows by less than prime^2 per pivot, so it stays below about
ncols * 2^122 plus its input size.

Also provides the two classical determinant identities used throughout:

  schur_block_det    det [[X,Y],[Z,W]] = det(X) det(W - Z X^-1 Y)
  det_rank_update    det(A + U V^t)   = det(A) det(Id + V^t A^-1 U)

All values are immutable; every function is pure and safe to call from
multiple threads, except rank_mod_rows and det_mod_rows, which eliminate the
rows they are given in place.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Optional, Sequence, Union

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


def _scale(rows: Sequence[Sequence[int]], factor: int) -> Sequence[Sequence[int]]:
    """Every entry times factor; the rows themselves when factor is 1."""
    return rows if factor == 1 else [[x * factor for x in row] for row in rows]


class ExactMatrix:
    """Dense row-major matrix of exact rationals: int rows over one denominator.

    _e holds the rows as tuples of ints and _den a positive int, and the gcd
    of _den and all entries is 1, so equal matrices store equal rows.  Entries
    read back as an int when integral, else a Fraction.
    """

    __slots__ = ("rows", "cols", "_e", "_den")

    def __init__(self, entries: Sequence[Sequence]):
        rows, dens = [], []
        for row in entries:
            row = tuple(row)
            if not _INT_ONLY.issuperset(map(type, row)):  # the common all-int row skips _coerce
                row = tuple(map(_coerce, row))
                dens.extend(x.denominator for x in row)
            rows.append(row)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        # the lcm of reduced denominators leaves no factor common to all entries
        den = math.lcm(*dens)
        if den != 1:
            rows = [tuple(x.numerator * (den // x.denominator) for x in row) for row in rows]
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self._e = tuple(rows)
        self._den = den

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["ExactMatrix"]]) -> "ExactMatrix":
        """Assemble a matrix from a rectangular grid of equally shaped blocks."""
        den = math.lcm(*(block._den for block_row in grid for block in block_row))
        out: list[list[int]] = []
        for block_row in grid:
            parts = [_scale(block._e, den // block._den) for block in block_row]
            out.extend([x for part in parts for x in part[i]] for i in range(block_row[0].rows))
        return _over(out, den)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[Entry, ...]:
        return self._e[i] if self._den == 1 else tuple(self[i, j] for j in range(self.cols))

    def __getitem__(self, key: tuple[int, int]) -> Entry:
        i, j = key
        return _coerce(Fraction(self._e[i][j], self._den))

    def __iter__(self):
        return iter(self._e) if self._den == 1 else map(self.row, range(self.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self._den == other._den and self._e == other._e

    def __hash__(self) -> int:
        return hash((self._e, self._den))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def _entrywise(self, op: Callable[[int, int], int], other: "ExactMatrix") -> "ExactMatrix":
        """op of matching entries, both matrices brought to the lcm of their denominators."""
        if self.shape != other.shape:
            raise ValueError("incompatible shapes")
        den = math.lcm(self._den, other._den)
        left, right = _scale(self._e, den // self._den), _scale(other._e, den // other._den)
        return _over([list(map(op, r1, r2)) for r1, r2 in zip(left, right)], den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(sub, other)

    def __neg__(self) -> "ExactMatrix":
        return _over([[-a for a in r] for r in self._e], self._den)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("incompatible shapes")
            cols = list(zip(*other._e))
            return _over(
                [[sum(map(mul, row, col)) for col in cols] for row in self._e], self._den * other._den
            )
        scalar = _coerce(other)
        return _over(_scale(self._e, scalar.numerator), self._den * scalar.denominator)

    __rmul__ = __mul__

    def transpose(self) -> "ExactMatrix":
        return _over(list(zip(*self._e)), self._den)

    def is_zero(self) -> bool:
        return not any(map(any, self._e))

    def trace(self) -> Entry:
        if not self.is_square:
            raise ValueError("trace of non-square matrix")
        return _coerce(Fraction(sum(self._e[i][i] for i in range(self.rows)), self._den))


def _over(rows: Sequence[Sequence[int]], den: int) -> ExactMatrix:
    """The matrix rows / den, for int rows and den > 0, in lowest terms."""
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(rows))
        if g != 1:
            den //= g
            rows = [[x // g for x in row] for row in rows]
    m = ExactMatrix(rows)
    m._den = den
    return m


def commutator(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    """[X, Y] = XY - YX, for square matrices of equal size.

    Other shapes raise ValueError: XY and YX are defined and of one shape
    only when X and Y are square of one size.
    """
    return x * y - y * x


def _integer_grid(m: ExactMatrix) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its entries' denominators; det(m) = det(grid) / scale.

    For a stored row over the denominator d that lcm is d / g with
    g = gcd(d, *row), so the grid row is the stored row over g and the scale
    is the product of the d / g.
    """
    if m._den == 1:
        return [list(row) for row in m._e], 1
    grid, scale = [], 1
    for row in m._e:
        g = math.gcd(m._den, *row)
        grid.append([x // g for x in row])
        scale *= m._den // g
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
    grid, scale = _integer_grid(m)
    return Fraction(_bareiss(grid, m.cols, stop_at_gap=True)[1], scale)


def rank_exact(m: ExactMatrix) -> int:
    """Exact rank over the rationals (fraction-free row echelon)."""
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
    return rank_mod_rows(_integer_grid(m)[0], m.cols, prime)


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


def _independent_rows(m: ExactMatrix) -> bool:
    """Whether the rows of m are linearly independent over Q.

    Full rank mod RANK_PRIME proves full rank over Q; only a short modular
    rank needs the exact elimination to decide.
    """
    return rank_mod(m) == m.rows or rank_exact(m) == m.rows


def rank_mod_rows(rows: list[list[int]], ncols: int, prime: int = RANK_PRIME) -> int:
    """Rank over GF(prime) of integer rows ncols long, eliminated in place."""
    return _echelon_mod(rows, ncols, prime, stop_at_gap=False)[0]


def det_mod_rows(rows: list[list[int]], prime: int = RANK_PRIME) -> int:
    """det of a square grid of integer rows, reduced into [0, prime), in place."""
    return _echelon_mod(rows, len(rows), prime, stop_at_gap=True)[1]


def _product_mod(
    left: Sequence[Sequence[int]], right: Sequence[Sequence[int]], ncols: int, prime: int
) -> list[list[int]]:
    """Rows of left times the grid of right rows, ncols wide, entries in [0, prime).

    Each right row is reduced and packed into one int, residue k at bit
    k * bits with bits = 2 bits(prime) + bits(len(right)).  A left row,
    reduced, times the packed rows is then one C-level sum per output row:
    slot k holds at most len(right) * (prime - 1)^2 < 2^bits, so no slot
    carries into the next, and shifting and masking read the slots back.
    """
    bits = 2 * prime.bit_length() + len(right).bit_length()
    mask = (1 << bits) - 1
    packed = []
    for row in right:
        total = 0
        for v in reversed(row):
            total = total << bits | v % prime
        packed.append(total)
    shifts = range(0, ncols * bits, bits)
    out = []
    for row in left:
        total = sum(map(mul, [v % prime for v in row], packed))
        out.append([(total >> s & mask) % prime for s in shifts])
    return out


def mul_mod(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]], prime: int = RANK_PRIME) -> list[list[int]]:
    """The product of two integer grids, entries reduced into [0, prime)."""
    ncols = len(y[0]) if y else 0
    if not {len(y)}.issuperset(map(len, x)) or not {ncols}.issuperset(map(len, y)):
        raise ValueError("incompatible shapes")
    return _product_mod(x, y, ncols, prime)


def commutator_mod(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]], prime: int = RANK_PRIME) -> list[list[int]]:
    """[X, Y] = XY - YX of two square integer grids, entries in [0, prime).

    One packed product: row i is [X[i], -Y[i]] times Y stacked above X.
    """
    n = len(x)
    if len(y) != n or not {n}.issuperset(map(len, chain(x, y))):
        raise ValueError("incompatible shapes")
    return _product_mod([[*x_row, *map(neg, y_row)] for x_row, y_row in zip(x, y)], [*y, *x], n, prime)


Grid = Sequence[Sequence[int]]


def linear_map_mod(
    n: int,
    blocks: int,
    terms: Sequence[tuple[int, int, int, Optional[Grid], Optional[Grid]]],
    constants: Sequence[tuple[int, int, int, Grid]] = (),
    prime: int = RANK_PRIME,
) -> Callable[[Grid], list[list[int]]]:
    """The affine map V -> sum of sign * P V Q plus constants, tabulated once, mod prime.

    V is an n x n grid with entries in (-prime, prime).  The image is a grid
    of blocks x blocks n x n blocks: each term (I, J, sign, P, Q) adds
    sign * P V Q to block (I, J), with None for an identity factor, and each
    constant (I, J, sign, C) adds sign * C.  The image of each matrix unit
    E_ab is reduced into [0, prime) and packed into one int, in slots of
    2 bits(prime) + bits(n^2) + 1 bits rounded up to whole bytes.  A slot of
    sum(V_ab * image(E_ab)) then lies within +-bound = +-n^2 (prime - 1)^2,
    so adding a multiple of prime at least bound to every slot makes each
    slot nonnegative, and the lifted slot plus a constant's residue still
    fits.  The returned function costs one multiply-add per entry of V and
    one unpacking mod prime, and returns the rows of the image.
    """
    side = blocks * n
    width = (2 * prime.bit_length() + (n * n).bit_length() + 8) // 8

    def add_row(image: list[int], block_row: int, block_col: int, i: int, values: list[int]) -> None:
        start = (block_row * n + i) * side + block_col * n
        image[start : start + n] = map(add, image[start : start + n], values)

    def pack(image: list[int]) -> int:
        return int.from_bytes(b"".join([(v % prime).to_bytes(width, "little") for v in image]), "little")

    base = [0] * (side * side)  # row-major, like every image
    for block_row, block_col, sign, rows in constants:
        for i, row in enumerate(rows):
            add_row(base, block_row, block_col, i, [sign * v for v in row])
    table = []
    for a in range(n):
        for b in range(n):
            image = [0] * (side * side)
            for block_row, block_col, sign, left, right in terms:
                # P E_ab Q is column a of P times row b of Q
                if left is None:
                    column = [(a, sign)]
                else:
                    column = [(i, sign * row[a]) for i, row in enumerate(left) if row[a]]
                for i, f in column:
                    if right is None:
                        image[(block_row * n + i) * side + block_col * n + b] += f
                    else:
                        add_row(image, block_row, block_col, i, [f * y for y in right[b]])
            table.append(pack(image))
    lift = -(-n * n * (prime - 1) ** 2 // prime) * prime
    offset = pack(base) + int.from_bytes(lift.to_bytes(width, "little") * (side * side), "little")
    size, row_size = side * side * width, side * width

    def apply(v: Grid) -> list[list[int]]:
        data = memoryview(sum(map(mul, chain.from_iterable(v), table), offset).to_bytes(size, "little"))
        return [
            [int.from_bytes(data[s : s + width], "little") % prime for s in range(r, r + row_size, width)]
            for r in range(0, size, row_size)
        ]

    return apply


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse by fraction-free (Bareiss) Gauss-Jordan; ValueError if singular.

    m = A / den with A an int grid.  Each pivot step maps every other row of
    [A | Id] to (row * prc - aic * pivot row) / prev, which divides exactly,
    and leaves it alone when aic == 0 and prc == prev.  The left block ends
    as prev * Id, so m^-1 = den * A^-1 is den times the right block over prev.
    """
    if not m.is_square:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m._e)]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), -1)
        if piv < 0:
            raise ValueError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        prc = a[c][c]
        for i in range(n):
            aic = a[i][c]
            if i != c and (aic or prc != prev):
                a[i] = [(x * prc - aic * y) // prev for x, y in zip(a[i], a[c])]
        prev = prc
    factor = m._den if prev > 0 else -m._den
    return _over(_scale([row[n:] for row in a], factor), abs(prev))


def reduce_mod(rows: ExactMatrix | Sequence[Sequence[Entry]], prime: int = RANK_PRIME) -> Optional[list[list[int]]]:
    """Entrywise image in GF(prime) of an ExactMatrix or list of rows.

    Entries of the result lie in [0, prime); None when prime divides the
    denominator, where the matrix has no image.
    """
    m = rows if isinstance(rows, ExactMatrix) else ExactMatrix(rows)
    if m._den % prime == 0:
        return None
    inv = pow(m._den, -1, prime)
    return [[x * inv % prime for x in row] for row in m._e]


def invert_mod(rows: Sequence[Sequence[int]], prime: int = RANK_PRIME) -> Optional[list[list[int]]]:
    """Inverse over GF(prime) of a square grid of integer rows (Gauss-Jordan).

    Entries of the result lie in [0, prime); None when the grid is singular
    mod prime, which an integer matrix of nonzero determinant can still be.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of non-square matrix")
    a = [[x % prime for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
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
    return [row[n:] for row in a]


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
    """Random integer matrix, resampled until nonsingular."""
    while True:
        m = random_int_matrix(rng, n, n, lo, hi)
        if det_exact(m) != 0:
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
