"""Block flattening matrices of slice families and their commutator structure.

For a family X_0, ..., X_2p of square slices, the flattening is the square
block matrix of the skew-symmetrized contraction map, with

  rows    indexed by p-subsets J of {0..2p}, those containing 0 first,
  columns indexed by (p+1)-subsets I, those containing 0 first,
  block (J, I) = insert_sign(k, J) * (-1)^k * X_k  when I = J u {k}, else 0,

lexicographic order inside each part.  This layout is a function of p
alone, so nothing carries it beside the grid: flattening_pattern(p) orders
the subsets, and partition_blocks(sym, p) splits at the binomials below.
In this ordering the matrix is

      [ Q   0 ]     rows split (binom(2p,p+1), binom(2p,p)) blocks,
      [ D   R ]     cols split (binom(2p,p),   binom(2p,p+1)) blocks,

where D = diag(X_0) pairs J (without 0) with {0} u J, Q holds only signed
X_1..X_2p, and the upper right corner vanishes identically.  When X_0 is the
identity, eliminating with the D rows turns the determinant into that of the
Schur complement -(Q R), a square grid in which every nonzero cell is a single
signed commutator [X_i, X_j]; commutator_matrix builds exactly that grid.
flattening_rank_mod ranks the flattening over GF(2^61 - 1) on that grid,
after normalizing X_0 to the identity mod the prime.

A grid is stored by its nonzero cells: each block row maps a column to a
label +-X_k or +-[X_i, X_j], and a zero block is simply absent.  Every
builder and consumer here walks only those cells: assemble builds an
ExactMatrix, assemble_mod a commutator grid's int rows mod a prime (for
flattening_rank_mod), filling absent cells with one shared zero block.
SymbolicBlockMatrix.labels is a dense read-only view, with BlockLabel.zero()
in every absent cell, for callers that walk every cell.  Each stored row is
a read-only mapping, so a shared grid cannot be altered.  schur_terms(p)
lists the blocks of the Schur complement of the commutator grid's
+-diag([X_1, X_2]) corner, which the key lemma's stage 3 evaluates.

The printed reference patterns for p = 1, 2, 3 are hardcoded below as token
grids; verify --suite p3 and the tests compare the constructed grids to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Mapping, Optional

from .exact_linalg import (
    RANK_PRIME,
    ExactMatrix,
    commutator,
    commutator_mod,
    invert,
    invert_mod,
    mul_mod,
    rank_mod,
    rank_mod_rows,
    reduce_mod,
)
from .tensor_core import SliceFamily
from .wedge import insert_sign, wedge_basis

# Desk-scale limit of the symbolic grids: the p = 5 commutator grid is
# 210 x 210 cells; the CLI rejects larger p.
MAX_SYMBOLIC_P = 5


class LayoutError(ValueError):
    """The symbolic grid violates the expected Q / 0 / D / R block structure."""


class StructureError(ValueError):
    """A product cell is not a single signed commutator."""


@dataclass(frozen=True)
class BlockLabel:
    """One block of a symbolic matrix: +-X_k or +-[X_i, X_j].

    The zero kind appears only in the dense SymbolicBlockMatrix.labels view.
    """

    kind: str
    sign: int = 1
    index: Optional[int] = None
    pair: Optional[tuple[int, int]] = None

    ZERO_KIND = "zero"
    SLICE_KIND = "slice"
    COMMUTATOR_KIND = "commutator"

    @classmethod
    def zero(cls) -> "BlockLabel":
        return cls(cls.ZERO_KIND, 1)

    @classmethod
    def of_slice(cls, k: int, sign: int = 1) -> "BlockLabel":
        return cls(cls.SLICE_KIND, sign, index=k)

    @classmethod
    def of_commutator(cls, i: int, j: int, sign: int = 1) -> "BlockLabel":
        if i == j:
            raise ValueError("commutator indices must differ")
        if i > j:
            i, j, sign = j, i, -sign
        return cls(cls.COMMUTATOR_KIND, sign, pair=(i, j))

    @property
    def is_zero(self) -> bool:
        return self.kind == self.ZERO_KIND

    def __neg__(self) -> "BlockLabel":
        return BlockLabel(self.kind, -self.sign, self.index, self.pair)

    def same_symbol(self, other: "BlockLabel") -> bool:
        """Equality ignoring the sign."""
        return (
            self.kind == other.kind
            and self.index == other.index
            and self.pair == other.pair
        )

    def token(self, signed: bool = True) -> str:
        if self.kind == self.ZERO_KIND:
            return "."
        if self.kind == self.SLICE_KIND:
            body = f"X{self.index}"
        else:
            i, j = self.pair
            body = f"X{i}{j}" if i <= 9 and j <= 9 else f"X{i}_{j}"
        if not signed:
            return body
        return ("+" if self.sign > 0 else "-") + body


@dataclass(frozen=True)
class SymbolicBlockMatrix:
    """Rectangular grid of block labels, stored by its nonzero cells.

    rows[i] maps each column j of a nonzero block (i, j) to its label, in
    increasing j; a zero block is absent.  Each row is stored as a read-only
    view of a copy of the given mapping.
    """

    block_rows: int
    block_cols: int
    rows: tuple[Mapping[int, BlockLabel], ...]

    def __post_init__(self):
        if len(self.rows) != self.block_rows or any(
            not 0 <= j < self.block_cols for row in self.rows for j in row
        ):
            raise ValueError("label grid shape mismatch")
        object.__setattr__(self, "rows", tuple(MappingProxyType(dict(row)) for row in self.rows))

    def label(self, i: int, j: int) -> Optional[BlockLabel]:
        """The label of block (i, j), or None for a zero block."""
        return self.rows[i].get(j)

    @property
    def labels(self) -> tuple[tuple[BlockLabel, ...], ...]:
        """Dense read-only view: every cell, one shared BlockLabel.zero() in the absent ones.

        Nothing in this package reads it; the benchmark tracer counts the
        blocks of every assembled grid through it.
        """
        zero = BlockLabel.zero()
        return tuple(tuple(row.get(j, zero) for j in range(self.block_cols)) for row in self.rows)

    def same_pattern(self, other: "SymbolicBlockMatrix", signed: bool = True) -> bool:
        if (self.block_rows, self.block_cols) != (other.block_rows, other.block_cols):
            return False
        return all(
            r1.keys() == r2.keys()
            and all(a == r2[j] if signed else a.same_symbol(r2[j]) for j, a in r1.items())
            for r1, r2 in zip(self.rows, other.rows)
        )


def _flattening_labels(p: int) -> tuple[dict[int, BlockLabel], ...]:
    """Row J holds +-X_k at column J u {k} for each k not in J.

    Rows are the p-subsets and columns the (p+1)-subsets of {0..2p}, those
    containing 0 first.  Within a row the columns J u {k} increase with k,
    so each row comes out in column order.
    """
    column_of = {subset: j for j, subset in enumerate(wedge_basis(p, p + 1))}
    grid = []
    for row_subset in wedge_basis(p, p):
        row = {}
        for k in range(2 * p + 1):
            wedge = insert_sign(k, row_subset)
            if wedge is not None:
                sign, merged = wedge
                row[column_of[merged]] = BlockLabel.of_slice(k, sign * (-1) ** k)
        grid.append(row)
    return tuple(grid)


def flattening_pattern(p: int) -> SymbolicBlockMatrix:
    """Symbolic flattening grid for generic slice labels."""
    rows = _flattening_labels(p)
    return SymbolicBlockMatrix(len(rows), len(rows), rows)


def _unsigned_matrix(label: BlockLabel, slices: SliceFamily) -> ExactMatrix:
    """X_k or [X_i, X_j] for a nonzero label, ignoring its sign."""
    if label.kind == BlockLabel.SLICE_KIND:
        if label.index >= len(slices.slices):
            raise ValueError(f"missing slice X_{label.index}")
        return slices.slices[label.index]
    i, j = label.pair
    if max(i, j) >= len(slices.slices):
        raise ValueError(f"missing slice X_{max(i, j)}")
    return commutator(slices.slices[i], slices.slices[j])


def assemble(sym: SymbolicBlockMatrix, slices: SliceFamily) -> ExactMatrix:
    """Expand a symbolic grid into a numeric matrix using the given slices.

    Each distinct label is expanded once per call and every absent cell shares
    one zero block: a p = 2 grid has 16 commutator cells but only 6 distinct
    pairs.
    """
    if slices.b != slices.c:
        raise ValueError("non-square slices")
    zero = ExactMatrix.zeros(slices.b, slices.b)
    blocks: dict[BlockLabel, ExactMatrix] = {}

    def block(label: Optional[BlockLabel]) -> ExactMatrix:
        if label is None:
            return zero
        matrix = blocks.get(label)
        if matrix is None:
            matrix = _unsigned_matrix(label, slices) if label.sign > 0 else -block(-label)
            blocks[label] = matrix
        return matrix

    cols = range(sym.block_cols)
    return ExactMatrix.from_blocks([[block(row.get(j)) for j in cols] for row in sym.rows])


def assemble_mod(pattern: SymbolicBlockMatrix, commutators: dict, n: int, prime: int = RANK_PRIME) -> list[list[int]]:
    """assemble of a commutator grid as int rows mod prime.

    commutators maps each pair (i, j), i < j, to the n x n rows of [X_i, X_j]
    with entries in [0, prime); the result is reduce_mod of assemble's.
    """
    zero = [[0] * n for _ in range(n)]
    negated = {pair: [[-v % prime for v in row] for row in rows] for pair, rows in commutators.items()}
    cols = range(pattern.block_cols)
    out = []
    for row in pattern.rows:
        cells = [
            zero if (lab := row.get(j)) is None else (commutators if lab.sign > 0 else negated)[lab.pair]
            for j in cols
        ]
        out.extend([v for cell in cells for v in cell[i]] for i in range(n))
    return out


def partition_blocks(sym: SymbolicBlockMatrix, p: int) -> tuple[SymbolicBlockMatrix, SymbolicBlockMatrix]:
    """The Q and R corners of the Q / 0 / diag(X_0) / R layout at p, checking each claim.

    Q is binom(2p,p+1) x binom(2p,p) blocks of signed X_1..X_2p; the upper
    right corner is identically zero; the lower left is +diag(X_0); R holds
    signed X_1..X_2p.  One pass over the nonzero cells checks all of it.
    """
    rs, cs = comb(2 * p, p + 1), comb(2 * p, p)
    if sym.block_rows - rs != cs:
        raise LayoutError("layout mismatch: pivot block not square")
    pivot = BlockLabel.of_slice(0, 1)
    q_rows, r_rows = [], []
    for i, row in enumerate(sym.rows):
        left = {j: label for j, label in row.items() if j < cs}
        right = {j - cs: label for j, label in row.items() if j >= cs}
        if i < rs:
            if right:
                raise LayoutError("layout mismatch: upper right corner not zero")
            corner, cells, kept = "Q", left, q_rows
        else:
            if left.pop(i - rs, None) != pivot:
                raise LayoutError("layout mismatch: pivot diagonal not +X0")
            if left:
                raise LayoutError("layout mismatch: pivot block not diagonal")
            corner, cells, kept = "R", right, r_rows
        if any(label.kind != BlockLabel.SLICE_KIND or label.index == 0 for label in cells.values()):
            raise LayoutError(f"layout mismatch: {corner} contains a non-slice or X0 label")
        kept.append(cells)
    return (
        SymbolicBlockMatrix(rs, cs, tuple(q_rows)),
        SymbolicBlockMatrix(cs, sym.block_cols - cs, tuple(r_rows)),
    )


@cache
def commutator_pattern(p: int) -> SymbolicBlockMatrix:
    """Schur-complement grid -(Q R): one signed commutator per nonzero cell.

    Built once per p and shared by every caller, so the returned grid must
    not be mutated.  Raises StructureError if any cell fails to reduce to a
    single commutator (a sum of two or more distinct commutators, or
    unbalanced coefficients).
    """
    q, r = partition_blocks(flattening_pattern(p), p)
    # Column t of Q (subset {0} u J') aligns with row t of R (subset J'):
    # lex order is preserved by J' -> {0} u J', so plain index alignment works.
    grid = []
    for i, q_row in enumerate(q.rows):
        cells: dict[int, dict[tuple[int, int], int]] = {}
        for t, left in q_row.items():
            for c, right in r.rows[t].items():
                terms = cells.setdefault(c, {})
                word = (left.index, right.index)
                coef = -left.sign * right.sign  # global Schur-complement negation
                terms[word] = terms.get(word, 0) + coef
        row = {}
        for c in sorted(cells):
            terms = {w: c0 for w, c0 in cells[c].items() if c0}
            if not terms:
                continue
            if len(terms) != 2:
                raise StructureError(f"structure violation at cell ({i},{c}): {terms}")
            (w1, c1), (w2, c2) = sorted(terms.items())
            if w1 != (w2[1], w2[0]) or c1 != -c2 or abs(c1) != 1:
                raise StructureError(f"structure violation at cell ({i},{c}): {terms}")
            k, l = w1
            row[c] = BlockLabel.of_commutator(k, l, c1)
        grid.append(row)
    return SymbolicBlockMatrix(q.block_rows, r.block_cols, tuple(grid))


@dataclass(frozen=True)
class SchurTerm:
    """sign * [X_a, X_b] for one pair, or sign * [X_a, X_b] K [X_c, X_d] for two.

    K stands for [X_1, X_2]^-1; each pair is increasing.
    """

    sign: int
    pairs: tuple[tuple[int, int], ...]


def _corner_signs(grid: SymbolicBlockMatrix, p: int) -> list[int]:
    """The signs c_k of the lower-left binom(2p-2, p-1)-block corner diag(c_k [X_1, X_2]).

    Raises StructureError if the corner is not +-[X_1, X_2] on the diagonal and zero off it.
    """
    d = comb(2 * p - 2, p - 1)
    corner = BlockLabel.of_commutator(1, 2)
    signs = []
    for k, row in enumerate(grid.rows[grid.block_rows - d :]):
        cells = {j: label for j, label in row.items() if j < d}
        label = cells.pop(k, None)
        if label is None or not label.same_symbol(corner) or cells:
            raise StructureError(f"corner block row {k} is not +-[X1, X2] on the diagonal")
        signs.append(label.sign)
    return signs


@cache
def schur_terms(p: int) -> tuple[tuple[tuple[SchurTerm, ...], ...], ...]:
    """Blocks of the Schur complement of the commutator grid's +-diag([X_1, X_2]) corner.

    With d = binom(2p-2, p-1) and m = binom(2p, p+1), the grid splits after
    m - d block rows and d block columns as [[A, B], [C, D]], where claim
    (a) of check_structure makes C = diag(c_k [X_1, X_2]), c_k = +-1.  With
    K = [X_1, X_2]^-1, C^-1 = diag(c_k K), and moving C's block columns
    behind the others gives

        det(grid) = (-1)^(d (m-d) n^2) * det(C) * det(S),   S = B - A C^-1 D,

    so wherever [X_1, X_2] is invertible det(grid) and det(S) vanish
    together.  Entry [I][J] lists the terms of block (I, J) of S: B's cell,
    then -c_k A_Ik K D_kJ for each k where both cells are nonzero.  Built
    once per p and shared.  Raises StructureError if the corner is not
    +-diag([X_1, X_2]) or if a product term has X_2p in both factors, where
    S would not be linear in the last slice.
    """
    grid = commutator_pattern(p)
    signs = _corner_signs(grid, p)
    d = len(signs)
    top = grid.block_rows - d
    last = 2 * p
    blocks = []
    for a_row in grid.rows[:top]:
        row = []
        for col in range(d, grid.block_cols):
            b_label = a_row.get(col)
            terms = [] if b_label is None else [SchurTerm(b_label.sign, (b_label.pair,))]
            for k, sign in enumerate(signs):
                left, right = a_row.get(k), grid.rows[top + k].get(col)
                if left is None or right is None:
                    continue
                if last in left.pair and last in right.pair:
                    raise StructureError(f"term {left.token()} K {right.token()} is quadratic in X{last}")
                terms.append(SchurTerm(-sign * left.sign * right.sign, (left.pair, right.pair)))
            row.append(tuple(terms))
        blocks.append(tuple(row))
    return tuple(blocks)


def normalize_pivot(slices: SliceFamily) -> SliceFamily:
    """Change basis so X_0 becomes the identity: X_i <- X_0^-1 X_i."""
    if slices.b != slices.c:
        raise ValueError("non-square slices")
    try:
        x0_inv = invert(slices.slices[0])
    except ValueError:
        raise ValueError("X_0 is singular; cannot normalize") from None
    new = (ExactMatrix.identity(slices.b),) + tuple(
        x0_inv * x for x in slices.slices[1:]
    )
    return SliceFamily(slices.p, slices.b, slices.c, new)


def commutator_matrix(slices: SliceFamily) -> ExactMatrix:
    """The assembled Schur-complement commutator grid.

    Requires X_0 = Id; use normalize_pivot first when X_0 is merely invertible.
    With X_0 = Id, det(assembled flattening) equals det of this matrix.
    """
    if slices.b != slices.c:
        raise ValueError("non-square slices")
    if slices.slices[0] != ExactMatrix.identity(slices.b):
        raise ValueError("normalize first")
    return assemble(commutator_pattern(slices.p), slices)


def flattening_rank_mod(slices: SliceFamily, prime: int = RANK_PRIME) -> int:
    """rank_mod of the assembled flattening, taken on its Schur complement.

    When prime divides no slice denominator and X_0 is invertible mod prime,
    left-multiplying every block row by X_0^-1 over GF(prime) turns the
    flattening into [[Q', 0], [Id, R']], and eliminating with the Id rows
    leaves -(Q' R'), which commutator_pattern checks cell by cell is the
    commutator grid of the normalized slices X_0^-1 X_i.  Hence

        rank = binom(2p, p) * b + rank(commutator grid of X_0^-1 X_i mod prime),

    a grid binom(2p, p+1) * b wide instead of binom(2p+1, p) * b, built and
    ranked as int rows mod prime.  Otherwise the dense flattening is
    assembled and ranked.  Either way the value equals
    rank_mod(assemble(flattening_pattern(p), slices), prime).
    """
    if slices.b != slices.c:
        raise ValueError("non-square slices")
    p, n = slices.p, slices.b
    reduced = [reduce_mod(x, prime) for x in slices.slices]
    x0_inv = None if any(x is None for x in reduced) else invert_mod(reduced[0], prime)
    if x0_inv is None:
        return rank_mod(assemble(flattening_pattern(p), slices), prime)
    xs = [None] + [mul_mod(x0_inv, x, prime) for x in reduced[1:]]
    pairs = combinations(range(1, 2 * p + 1), 2)
    commutators = {(i, j): commutator_mod(xs[i], xs[j], prime) for i, j in pairs}
    rows = assemble_mod(commutator_pattern(p), commutators, n, prime)
    return comb(2 * p, p) * n + rank_mod_rows(rows, len(rows), prime)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class StructureReport:
    p: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def check_structure(p: int) -> StructureReport:
    """Structural claims about the commutator grid, checked symbolically.

    (a) the lower-left binom(2p-2,p-1)-block corner is +-diag([X_1, X_2]);
    (b) every commutator on the diagonal occurs at least twice there;
    (c) for p >= 3 no diagonal commutator involves index 1 or 2p;
    (d) for p = 2 every index 1..4 occurs on the diagonal;
    plus the single-commutator-per-cell claim enforced by commutator_pattern.
    """
    if not 1 <= p <= MAX_SYMBOLIC_P:
        raise ValueError(f"structure checks run at desk scale 1 <= p <= {MAX_SYMBOLIC_P}")
    checks = []
    try:
        grid = commutator_pattern(p)
    except StructureError as exc:
        return StructureReport(p, (CheckResult("single-commutator-cells", False, str(exc)),))
    checks.append(
        CheckResult("single-commutator-cells", True, "every nonzero cell is one signed commutator")
    )

    try:
        corner_ok, detail = True, f"block-count {len(_corner_signs(grid, p))}"
    except StructureError as exc:
        corner_ok, detail = False, str(exc)
    checks.append(CheckResult("corner-diag-[X1,X2]", corner_ok, detail))

    diagonal = [grid.label(i, i) for i in range(grid.block_rows)]
    pairs = [lab.pair for lab in diagonal if lab is not None]
    counts: dict[tuple[int, int], int] = {}
    for pair in pairs:
        counts[pair] = counts.get(pair, 0) + 1
    rare = sorted(pair for pair, cnt in counts.items() if cnt < 2)
    checks.append(
        CheckResult(
            "diagonal-labels-repeat",
            not rare,
            f"diagonal labels {sorted(counts.items())}" if not rare else f"unique labels {rare}",
        )
    )

    if p >= 3:
        bad = sorted(pair for pair in counts if 1 in pair or 2 * p in pair)
        checks.append(
            CheckResult(
                "diagonal-excludes-extremes",
                not bad,
                "no diagonal label uses index 1 or 2p" if not bad else f"offending {bad}",
            )
        )
    if p == 2:
        seen = sorted({i for pair in counts for i in pair})
        checks.append(
            CheckResult(
                "diagonal-covers-all-indices",
                seen == [1, 2, 3, 4],
                f"indices on diagonal: {seen}",
            )
        )
    return StructureReport(p, tuple(checks))


def dump_symbolic(sym: SymbolicBlockMatrix, signed: bool = True) -> str:
    """Text grid with one token per block: '.', '+X3', '-X12', ..."""
    widths = [1] * sym.block_cols  # the width of '.'
    token_grid = [{j: label.token(signed) for j, label in row.items()} for row in sym.rows]
    for row in token_grid:
        for j, tok in row.items():
            widths[j] = max(widths[j], len(tok))
    empty = [".".ljust(width) for width in widths]
    lines = []
    for row in token_grid:
        cells = empty.copy()
        for j, tok in row.items():
            cells[j] = tok.ljust(widths[j])
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _parse_token(tok: str) -> BlockLabel:
    sign = 1
    if tok[0] in "+-":
        sign = 1 if tok[0] == "+" else -1
        tok = tok[1:]
    if not tok.startswith("X"):
        raise ValueError(f"bad token {tok!r}")
    body = tok[1:]
    if "_" in body:
        i, j = (int(x) for x in body.split("_"))
        return BlockLabel.of_commutator(i, j, sign)
    if len(body) == 1:
        return BlockLabel.of_slice(int(body), sign)
    if len(body) == 2:
        return BlockLabel.of_commutator(int(body[0]), int(body[1]), sign)
    raise ValueError(f"bad token {tok!r}")


def parse_symbolic(text: str) -> SymbolicBlockMatrix:
    """Inverse of dump_symbolic (used for the printed reference fixtures)."""
    rows = [line.split() for line in text.strip().splitlines()]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("label grid shape mismatch")
    grid = tuple({j: _parse_token(tok) for j, tok in enumerate(row) if tok != "."} for row in rows)
    return SymbolicBlockMatrix(len(grid), len(rows[0]), grid)


_REFERENCE_P1 = """
+X1 -X2 .
+X0 .   -X2
.   +X0 -X1
"""

_REFERENCE_P2 = """
+X2 -X3 +X4 .   .   .   .   .   .   .
+X1 .   .   -X3 +X4 .   .   .   .   .
.   +X1 .   -X2 .   +X4 .   .   .   .
.   .   +X1 .   -X2 +X3 .   .   .   .
+X0 .   .   .   .   .   -X3 +X4 .   .
.   +X0 .   .   .   .   -X2 .   +X4 .
.   .   +X0 .   .   .   .   -X2 +X3 .
.   .   .   +X0 .   .   -X1 .   .   +X4
.   .   .   .   +X0 .   .   -X1 .   +X3
.   .   .   .   .   +X0 .   .   -X1 +X2
"""

_REFERENCE_P3_COMMUTATORS = """
X34 X35 X36 X45 X46 X56 .   .   .   .   .   .   .   .   .
X24 X25 X26 .   .   .   X45 X46 X56 .   .   .   .   .   .
X23 .   .   X25 X26 .   X35 X36 .   X56 .   .   .   .   .
.   X23 .   X24 .   X26 X34 .   X36 X46 .   .   .   .   .
.   .   X23 .   X24 X25 .   X34 X35 X45 .   .   .   .   .
X14 X15 X16 .   .   .   .   .   .   .   X45 X46 X56 .   .
X13 .   .   X15 X16 .   .   .   .   .   X35 X36 .   X56 .
.   X13 .   X14 .   X16 .   .   .   .   X34 .   X36 X46 .
.   .   X13 .   X14 X15 .   .   .   .   .   X34 X35 X45 .
X12 .   .   .   .   .   X15 X16 .   .   X25 X26 .   .   X56
.   X12 .   .   .   .   X14 .   X16 .   X24 .   X26 .   X46
.   .   X12 .   .   .   .   X14 X15 .   .   X24 X25 .   X45
.   .   .   X12 .   .   X13 .   .   X16 X23 .   .   X26 X36
.   .   .   .   X12 .   .   X13 .   X15 .   X23 .   X25 X35
.   .   .   .   .   X12 .   .   X13 X14 .   .   X23 X24 X34
"""


def reference_pattern(p: int) -> SymbolicBlockMatrix:
    """Hardcoded transcriptions of the printed block matrices.

    p = 1 and p = 2 are flattening grids with signs; p = 3 is the 15x15
    commutator grid with unsigned labels (compare with signed=False).
    """
    if p == 1:
        return parse_symbolic(_REFERENCE_P1)
    if p == 2:
        return parse_symbolic(_REFERENCE_P2)
    if p == 3:
        return parse_symbolic(_REFERENCE_P3_COMMUTATORS)
    raise ValueError("reference patterns exist for p in {1, 2, 3}")
