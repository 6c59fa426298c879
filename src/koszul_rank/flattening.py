"""Block flattening matrices of slice families and their commutator structure.

For a family X_0, ..., X_2p of square slices, the flattening is the square
block matrix of the skew-symmetrized contraction map, with

  rows    indexed by p-subsets J of {0..2p}, those containing 0 first,
  columns indexed by (p+1)-subsets I, those containing 0 first,
  block (J, I) = insert_sign(k, J) * (-1)^k * X_k  when I = J u {k}, else 0,

lexicographic order inside each part.  In this ordering the matrix is

      [ Q   0 ]     rows split (binom(2p,p+1), binom(2p,p)) blocks,
      [ D   R ]     cols split (binom(2p,p),   binom(2p,p+1)) blocks,

where D = diag(X_0) pairs J (without 0) with {0} u J, Q holds only signed
X_1..X_2p, and the upper right corner vanishes identically.  When X_0 is the
identity, eliminating with the D rows turns the determinant into that of the
Schur complement -(Q R), a square grid in which every nonzero cell is a single
signed commutator [X_i, X_j]; commutator_matrix builds exactly that grid.
flattening_rank_mod ranks the flattening over GF(2^61 - 1) on that grid,
after normalizing X_0 to the identity mod the prime.

Blocks carry three label kinds: zero, +-X_k and +-[X_i, X_j].  Both grids
are built from their nonzero blocks only: assemble builds an ExactMatrix,
assemble_mod a commutator grid's int rows mod a prime (for
flattening_rank_mod and the key lemma's stage 3).

The printed reference patterns for p = 1, 2, 3 are hardcoded below as token
grids; verify --suite p3 and the tests compare the constructed grids to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional

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
from .wedge import WedgeIndex, insert_sign, wedge_basis

# Desk-scale limit of the symbolic grids: the p = 5 commutator grid is
# 210 x 210 cells; the CLI rejects larger p.
MAX_SYMBOLIC_P = 5


class LayoutError(ValueError):
    """The symbolic grid violates the expected Q / 0 / D / R block structure."""


class StructureError(ValueError):
    """A product cell is not a single signed commutator."""


@dataclass(frozen=True)
class BlockLabel:
    """One block of a symbolic matrix: zero, +-X_k, or +-[X_i, X_j]."""

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
        if self.is_zero:
            return self
        return BlockLabel(self.kind, -self.sign, self.index, self.pair)

    def same_symbol(self, other: "BlockLabel") -> bool:
        """Equality ignoring the sign."""
        return (
            self.kind == other.kind
            and self.index == other.index
            and self.pair == other.pair
        )

    def token(self, signed: bool = True) -> str:
        if self.is_zero:
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
    """Rectangular grid of block labels."""

    block_rows: int
    block_cols: int
    labels: tuple[tuple[BlockLabel, ...], ...]

    def __post_init__(self):
        if len(self.labels) != self.block_rows or any(
            len(r) != self.block_cols for r in self.labels
        ):
            raise ValueError("label grid shape mismatch")

    def label(self, i: int, j: int) -> BlockLabel:
        return self.labels[i][j]

    def sub(self, rows: range, cols: range) -> "SymbolicBlockMatrix":
        grid = tuple(tuple(self.labels[i][j] for j in cols) for i in rows)
        return SymbolicBlockMatrix(len(rows), len(cols), grid)

    def same_pattern(self, other: "SymbolicBlockMatrix", signed: bool = True) -> bool:
        if (self.block_rows, self.block_cols) != (other.block_rows, other.block_cols):
            return False
        for r1, r2 in zip(self.labels, other.labels):
            for a, b in zip(r1, r2):
                if signed:
                    if a != b and not (a.is_zero and b.is_zero):
                        return False
                elif not a.same_symbol(b):
                    return False
        return True


@dataclass(frozen=True)
class FlatteningLayout:
    """Row/column subset orderings of the flattening grid.

    Rows are the p-subsets (containing 0 first), columns the (p+1)-subsets
    (containing 0 first); row_split and col_split are the sizes of the
    containing-0 parts, so the Q block occupies rows[:row_split] and the
    diag(X_0) block rows[row_split:] x cols[:col_split].
    """

    p: int
    row_subsets: tuple[WedgeIndex, ...]
    col_subsets: tuple[WedgeIndex, ...]
    row_split: int
    col_split: int


def flattening_layout(p: int) -> FlatteningLayout:
    rows_with, rows_without = wedge_basis(p, p).split_on_zero()
    cols_with, cols_without = wedge_basis(p, p + 1).split_on_zero()
    return FlatteningLayout(
        p=p,
        row_subsets=tuple(rows_with + rows_without),
        col_subsets=tuple(cols_with + cols_without),
        row_split=len(rows_with),
        col_split=len(cols_with),
    )


def _flattening_labels(layout: FlatteningLayout) -> tuple[tuple[BlockLabel, ...], ...]:
    """Row J holds +-X_k at column J u {k} for each k not in J, zero elsewhere."""
    column_of = {subset: j for j, subset in enumerate(layout.col_subsets)}
    zero = BlockLabel.zero()
    grid = []
    for row_subset in layout.row_subsets:
        row = [zero] * len(layout.col_subsets)
        for k in range(2 * layout.p + 1):
            wedge = insert_sign(k, row_subset)
            if wedge is not None:
                sign, merged = wedge
                row[column_of[merged]] = BlockLabel.of_slice(k, sign * (-1) ** k)
        grid.append(tuple(row))
    return tuple(grid)


def flattening_pattern(p: int):
    """Symbolic flattening grid and its layout for generic slice labels."""
    layout = flattening_layout(p)
    labels = _flattening_labels(layout)
    size = len(layout.row_subsets)
    return SymbolicBlockMatrix(size, size, labels), layout


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

    Each distinct label is expanded once per call and every zero cell shares
    one zero block: a p = 2 grid has 16 commutator cells but only 6 distinct
    pairs.
    """
    if slices.b != slices.c:
        raise ValueError("non-square slices")
    zero = ExactMatrix.zeros(slices.b, slices.b)
    blocks: dict[BlockLabel, ExactMatrix] = {}

    def block(label: BlockLabel) -> ExactMatrix:
        if label.is_zero:
            return zero
        matrix = blocks.get(label)
        if matrix is None:
            matrix = _unsigned_matrix(label, slices) if label.sign > 0 else -block(-label)
            blocks[label] = matrix
        return matrix

    return ExactMatrix.from_blocks([[block(label) for label in row] for row in sym.labels])


def assemble_mod(pattern: SymbolicBlockMatrix, commutators: dict, n: int, prime: int = RANK_PRIME) -> list[list[int]]:
    """assemble of a commutator grid as int rows mod prime.

    commutators maps each pair (i, j), i < j, to the n x n rows of [X_i, X_j]
    with entries in [0, prime); the result is reduce_mod of assemble's.
    """
    zero = [[0] * n for _ in range(n)]
    negated = {pair: [[-v % prime for v in row] for row in rows] for pair, rows in commutators.items()}
    out = []
    for labels in pattern.labels:
        cells = [zero if lab.is_zero else (commutators if lab.sign > 0 else negated)[lab.pair] for lab in labels]
        out.extend([v for cell in cells for v in cell[i]] for i in range(n))
    return out


@dataclass(frozen=True)
class BlockPartition:
    """The four corners of the flattening grid, validated for shape and content."""

    q: SymbolicBlockMatrix
    zero: SymbolicBlockMatrix
    diag: SymbolicBlockMatrix
    qbar: SymbolicBlockMatrix


def partition_blocks(sym: SymbolicBlockMatrix, layout: FlatteningLayout) -> BlockPartition:
    """Split into Q / 0 / diag(X_0) / R corners, checking each claim.

    Q is binom(2p,p+1) x binom(2p,p) blocks of signed X_1..X_2p; the upper
    right corner is identically zero; the lower left is +diag(X_0).
    """
    rs, cs = layout.row_split, layout.col_split
    q = sym.sub(range(rs), range(cs))
    zero = sym.sub(range(rs), range(cs, sym.block_cols))
    diag = sym.sub(range(rs, sym.block_rows), range(cs))
    qbar = sym.sub(range(rs, sym.block_rows), range(cs, sym.block_cols))

    p = layout.p
    if q.block_rows != comb(2 * p, p + 1) or q.block_cols != comb(2 * p, p):
        raise LayoutError("layout mismatch: Q block shape")
    for row in zero.labels:
        if any(not label.is_zero for label in row):
            raise LayoutError("layout mismatch: upper right corner not zero")
    if diag.block_rows != diag.block_cols:
        raise LayoutError("layout mismatch: pivot block not square")
    for i, row in enumerate(diag.labels):
        for j, label in enumerate(row):
            if i == j:
                if label != BlockLabel.of_slice(0, 1):
                    raise LayoutError("layout mismatch: pivot diagonal not +X0")
            elif not label.is_zero:
                raise LayoutError("layout mismatch: pivot block not diagonal")
    for row in q.labels:
        for label in row:
            if not label.is_zero and (label.kind != BlockLabel.SLICE_KIND or label.index == 0):
                raise LayoutError("layout mismatch: Q contains a non-slice or X0 label")
    for row in qbar.labels:
        for label in row:
            if not label.is_zero and (label.kind != BlockLabel.SLICE_KIND or label.index == 0):
                raise LayoutError("layout mismatch: R contains a non-slice or X0 label")
    return BlockPartition(q=q, zero=zero, diag=diag, qbar=qbar)


def commutator_pattern(p: int) -> SymbolicBlockMatrix:
    """Schur-complement grid -(Q R): one signed commutator or zero per cell.

    Raises StructureError if any cell fails to reduce to a single commutator
    (a sum of two or more distinct commutators, or unbalanced coefficients).
    """
    sym, layout = flattening_pattern(p)
    parts = partition_blocks(sym, layout)
    q, qbar = parts.q, parts.qbar
    # Column t of Q (subset {0} u J') aligns with row t of R (subset J'):
    # lex order is preserved by J' -> {0} u J', so plain index alignment works.
    r_nonzero = [
        [(c, label) for c, label in enumerate(row) if not label.is_zero] for row in qbar.labels
    ]
    zero = BlockLabel.zero()
    grid = []
    for r, q_row in enumerate(q.labels):
        cells: dict[int, dict[tuple[int, int], int]] = {}
        for t, left in enumerate(q_row):
            if left.is_zero:
                continue
            for c, right in r_nonzero[t]:
                terms = cells.setdefault(c, {})
                word = (left.index, right.index)
                coef = -left.sign * right.sign  # global Schur-complement negation
                terms[word] = terms.get(word, 0) + coef
        row = [zero] * qbar.block_cols
        for c in sorted(cells):
            terms = {w: c0 for w, c0 in cells[c].items() if c0}
            if not terms:
                continue
            if len(terms) != 2:
                raise StructureError(f"structure violation at cell ({r},{c}): {terms}")
            (w1, c1), (w2, c2) = sorted(terms.items())
            if w1 != (w2[1], w2[0]) or c1 != -c2 or abs(c1) != 1:
                raise StructureError(f"structure violation at cell ({r},{c}): {terms}")
            k, l = w1
            row[c] = BlockLabel.of_commutator(k, l, c1)
        grid.append(tuple(row))
    return SymbolicBlockMatrix(q.block_rows, qbar.block_cols, tuple(grid))


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


def commutator_matrix(slices: SliceFamily):
    """Symbolic and numeric Schur-complement commutator grid.

    Requires X_0 = Id; use normalize_pivot first when X_0 is merely invertible.
    With X_0 = Id, det(assembled flattening) equals det of this matrix.
    """
    if slices.b != slices.c:
        raise ValueError("non-square slices")
    if slices.slices[0] != ExactMatrix.identity(slices.b):
        raise ValueError("normalize first")
    sym = commutator_pattern(slices.p)
    return sym, assemble(sym, slices)


@lru_cache(maxsize=None)
def _schur_grid(p: int) -> SymbolicBlockMatrix:
    """commutator_pattern(p), built once per p for flattening_rank_mod."""
    return commutator_pattern(p)


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
    rank_mod(assemble(flattening_pattern(p)[0], slices), prime).
    """
    if slices.b != slices.c:
        raise ValueError("non-square slices")
    p, n = slices.p, slices.b
    reduced = [reduce_mod(x, prime) for x in slices.slices]
    x0_inv = None if any(x is None for x in reduced) else invert_mod(reduced[0], prime)
    if x0_inv is None:
        sym, _ = flattening_pattern(p)
        return rank_mod(assemble(sym, slices), prime)
    xs = [None] + [mul_mod(x0_inv, x, prime) for x in reduced[1:]]
    pairs = combinations(range(1, 2 * p + 1), 2)
    commutators = {(i, j): commutator_mod(xs[i], xs[j], prime) for i, j in pairs}
    rows = assemble_mod(_schur_grid(p), commutators, n, prime)
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

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


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

    d = comb(2 * p - 2, p - 1)
    corner_ok = True
    detail = f"block-count {d}"
    for i in range(d):
        for j in range(d):
            label = grid.label(grid.block_rows - d + i, j)
            if i == j:
                if not label.same_symbol(BlockLabel.of_commutator(1, 2)):
                    corner_ok, detail = False, f"diagonal cell {i} is {label.token()}"
            elif not label.is_zero:
                corner_ok, detail = False, f"off-diagonal cell ({i},{j}) is {label.token()}"
    checks.append(CheckResult("corner-diag-[X1,X2]", corner_ok, detail))

    diagonal = [grid.label(i, i) for i in range(grid.block_rows)]
    pairs = [lab.pair for lab in diagonal if not lab.is_zero]
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
    widths = [0] * sym.block_cols
    token_grid = [[label.token(signed) for label in row] for row in sym.labels]
    for row in token_grid:
        for j, tok in enumerate(row):
            widths[j] = max(widths[j], len(tok))
    lines = [
        " ".join(tok.ljust(widths[j]) for j, tok in enumerate(row)).rstrip()
        for row in token_grid
    ]
    return "\n".join(lines) + "\n"


def _parse_token(tok: str) -> BlockLabel:
    if tok == ".":
        return BlockLabel.zero()
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
    grid = tuple(tuple(_parse_token(tok) for tok in row) for row in rows)
    return SymbolicBlockMatrix(len(grid), len(grid[0]), grid)


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
