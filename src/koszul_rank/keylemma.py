"""Randomized support-restriction search and the staged witness pipeline.

The central primitive: a nonzero polynomial of degree d, restricted to a
coordinate subspace, stays nonzero on some support of at most d coordinates.
support_restriction_search realizes this by greedy variable elimination with
randomized nonzero testing; at the fixpoint, zeroing any remaining variable
kills the polynomial, so every monomial uses all remaining variables and the
support size is bounded by the degree.  Sampling ranges scale with
2^20 * degree so a false "identically zero" verdict is astronomically
unlikely.  The pipeline's stage evaluators return determinants mod
RANK_PRIME = 2^61 - 1, so an accepted step is witnessed by a nonzero
residue, which proves the integer value nonzero; a zero residue only rejects
that sample and the search draws again.

The evaluators work on residues throughout.  Once per pipeline run the basis
entries, adj(alpha^0) and each fixed (normalized) slice are reduced mod
RANK_PRIME, and the stage-1 auxiliary matrix is held as int rows; an
evaluation then builds its stage matrix M as plain int rows mod the prime
(products, commutators, the stage-3 grid) and hands them to
exact_linalg.det_mod_rows, the lazy-reduction elimination kernel.
For an integer basis M is an integer matrix and det(M mod p) = det(M) mod p,
so every residue is the one det_mod(M) would give and the search takes the
same path.  A rational basis needs every denominator prime to RANK_PRIME,
where the residues exist and vanish exactly when det_mod of the row-scaled
matrix does; key_lemma_search rejects any other basis at stage P0.  Stage 3
takes the commutators among the fixed v_1 .. v_{2p-1} once, so an
evaluation computes only the 2p - 1 commutators [v_i, v_2p].

key_lemma_search chains four such searches (pipeline for p in {1, 2}):

  stage 0   det over the matrix space          -> alpha^0, support <= n
  stage 1   dets of middle-slice commutators   -> v_2..v_{2p-1}, <= n*binom(2p,p+1)
  stage 2   det([X_1, fixed X_2])              -> v_1, support <= n
  stage 3   det of the commutator grid in v_2p -> v_2p, <= n*(binom(2p,p+1)-binom(2p-2,p-1))

fixing the sampled witness after each stage.  The product structure
det(grid) = det(diagonal part) * det(Schur factors) makes the final
det != 0 automatic once every stage succeeded; the witness is re-validated
from scratch anyway.  Stage arithmetic uses adjugate-normalized slices
adj(alpha^0) * v (integer entries), which rescales each stage polynomial by a
nonzero constant without moving its zero set or degree.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence

from .exact_linalg import (
    RANK_PRIME,
    Entry,
    ExactMatrix,
    child_seed,
    commutator,
    det_exact,
    det_mod_rows,
    invert,
    rank_exact,
    rank_mod,
    reduce_mod,
)
from .flattening import (
    BlockLabel,
    SymbolicBlockMatrix,
    commutator_matrix,
    commutator_pattern,
    normalize_pivot,
)
from .tensor_core import SliceFamily


class KeyLemmaStageError(RuntimeError):
    """A pipeline stage failed its nonzero search; the message names the stage."""


@dataclass(frozen=True)
class PolynomialEvaluator:
    """A black-box polynomial: arity, a degree bound, and an evaluator.

    evaluate returns either the exact value or a residue of it mod a prime
    (nonzero only if the value is nonzero).  Only nonzero tests may use a
    residue evaluator; degree_along_line interpolates and needs exact values.
    """

    arity: int
    degree_bound: int
    evaluate: Callable[[Sequence[int]], Entry]


@dataclass(frozen=True)
class SupportWitness:
    support: tuple[int, ...]
    point: tuple[int, ...]
    value: Entry  # whatever poly.evaluate returned: exact or a residue


def support_restriction_search(
    poly: PolynomialEvaluator,
    seed: int = 0,
    sample_budget: int = 4,
    stop_at: Optional[int] = None,
) -> SupportWitness:
    """Greedy support shrinking with randomized nonzero tests.

    Returns a support with an integer point (zero off the support) where the
    polynomial provably does not vanish: poly.evaluate returned a nonzero
    value there, exact or a residue mod a prime, and either proves it.  By
    default the support is shrunk to a fixpoint, which the degree argument
    caps at degree_bound; passing stop_at ends the shrinking as soon as the
    support is that small.  The staged pipeline stops at its per-stage
    budgets rather than at minimal supports: inclusion-minimal supports tend
    to be structurally degenerate (for instance, all slices singular), which
    starves the later stages.
    Raises KeyLemmaStageError when the polynomial looks identically zero.
    """
    rng = random.Random(child_seed(seed, 0xA11CE))
    span = max(2**20 * max(poly.degree_bound, 1), 1024)
    target = poly.degree_bound if stop_at is None else max(stop_at, poly.degree_bound)

    def sample(support: Sequence[int], budget: int) -> Optional[tuple[tuple[int, ...], Entry]]:
        for _ in range(budget):
            point = [0] * poly.arity
            for i in support:
                point[i] = rng.randint(-span, span)
            value = poly.evaluate(point)
            if value != 0:
                return tuple(point), value
        return None

    support = list(range(poly.arity))
    found = sample(support, sample_budget * 2)
    if found is None:
        raise KeyLemmaStageError("polynomial appears identically zero (probabilistic)")
    point, value = found

    budget = sample_budget
    for _round in range(3):
        progress = True
        while progress and not (stop_at is not None and len(support) <= stop_at):
            progress = False
            order = list(support)
            rng.shuffle(order)
            for i in order:
                if stop_at is not None and len(support) <= stop_at:
                    break
                candidate = [j for j in support if j != i]
                found = sample(candidate, budget)
                if found is not None:
                    support = candidate
                    point, value = found
                    progress = True
        if len(support) <= target:
            break
        budget *= 8  # escalate before concluding the fixpoint is real
    if len(support) > target:
        raise KeyLemmaStageError(
            f"support {len(support)} exceeds degree bound {poly.degree_bound}"
        )
    return SupportWitness(tuple(support), point, value)


def shrink_witness(
    poly: PolynomialEvaluator, witness: SupportWitness, seed: int = 0
) -> SupportWitness:
    """Re-draw the witness point with small entries on the same support.

    Keeps downstream arithmetic small; every candidate is re-verified with
    poly.evaluate, with the range doubling on repeated failure, and the
    original witness is the fallback.
    """
    rng = random.Random(child_seed(seed, 0x5A11))
    span = 99
    for _ in range(24):
        point = [0] * poly.arity
        for i in witness.support:
            point[i] = rng.randint(-span, span)
        value = poly.evaluate(point)
        if value != 0:
            return SupportWitness(witness.support, tuple(point), value)
        span *= 2
    return witness


def h_value(n: int, p: int) -> int:
    """n^2 - n(2 binom(2p,p+1) - binom(2p-2,p-1) + 2); may be negative."""
    if p < 1:
        raise ValueError("p must be >= 1")
    coefficient = 2 * math.comb(2 * p, p + 1) - math.comb(2 * p - 2, p - 1) + 2
    return n * n - n * coefficient


def elementary_basis(n: int) -> list[ExactMatrix]:
    """The n^2 matrix units, row-major."""
    out = []
    for r in range(n):
        for c in range(n):
            grid = [[0] * n for _ in range(n)]
            grid[r][c] = 1
            out.append(ExactMatrix(grid))
    return out


def _basis_entries(basis: Sequence[ExactMatrix]) -> list[tuple[tuple[int, int, Entry], ...]]:
    """Each basis matrix's nonzero entries (i, j, value), listed once."""
    return [
        tuple((i, j, v) for i in range(b.rows) for j, v in enumerate(b.row(i)) if v)
        for b in basis
    ]


def _grid_from_entries(coords: Sequence, entries: Sequence, n: int) -> list[list]:
    """Rows of sum_k coords[k] * basis[k], touching only the listed nonzero entries."""
    grid = [[0] * n for _ in range(n)]
    for x, cells in zip(coords, entries):
        if x:
            for i, j, v in cells:
                grid[i][j] += x * v
    return grid


def _matrix_from_coords(coords: Sequence, basis: Sequence[ExactMatrix], n: int) -> ExactMatrix:
    return ExactMatrix(_grid_from_entries(coords, _basis_entries(basis), n))


@dataclass(frozen=True)
class NonvanishingReport:
    nonzero: bool
    witness: Optional[SliceFamily]
    trials_used: int
    seed: int
    det: Optional[Fraction]


def generic_nonvanishing(n: int, p: int, seed: int = 0, trials: int = 5) -> NonvanishingReport:
    """Sample random traceless integer slices (X_0 = Id) until det(grid) != 0."""
    if n < 2 or 2 * p + 1 > n * n:
        raise ValueError("p too large for n")
    for t in range(trials):
        rng = random.Random(child_seed(seed, 0x6E0, t))
        xs = []
        for _ in range(2 * p):
            grid = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            trace = sum(grid[i][i] for i in range(n))
            grid[n - 1][n - 1] -= trace  # integer traceless sampling
            xs.append(ExactMatrix(grid))
        family = SliceFamily(p, n, n, (ExactMatrix.identity(n), *xs))
        _, numeric = commutator_matrix(family)
        value = det_exact(numeric)
        if value != 0:
            return NonvanishingReport(True, family, t + 1, seed, value)
    return NonvanishingReport(False, None, trials, seed, None)


def degree_along_line(poly: PolynomialEvaluator, seed: int = 0) -> int:
    """Degree of t -> P(x0 + t v) for a random integer line, by exact interpolation.

    Evaluates at degree_bound + 3 points; the last two verify the Newton
    interpolant, so a non-polynomial evaluator (or an understated bound) is
    detected instead of silently mismeasured.  poly.evaluate must return
    exact values: residues mod a prime do not interpolate over Q.  Equals the
    total degree of P with high probability over the line choice.
    """
    rng = random.Random(child_seed(seed, 0xDE6))
    base = [rng.randint(-9, 9) for _ in range(poly.arity)]
    direction = [rng.randint(-9, 9) for _ in range(poly.arity)]
    if not any(direction):
        direction[0] = 1
    d = poly.degree_bound
    values = [
        poly.evaluate([b + t * v for b, v in zip(base, direction)]) for t in range(d + 3)
    ]
    diffs = []
    row = [Fraction(x) for x in values[: d + 1]]
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]

    def newton_eval(t: int) -> Fraction:
        acc = Fraction(0)
        for k, c in enumerate(diffs):
            if c:
                acc += c * math.comb(t, k)
        return acc

    if newton_eval(d + 1) != values[d + 1] or newton_eval(d + 2) != values[d + 2]:
        raise ValueError("interpolation inconsistency: evaluator is not a polynomial of the stated degree")
    degree = 0
    for k, c in enumerate(diffs):
        if c != 0:
            degree = k
    return degree


@dataclass(frozen=True)
class KeyLemmaWitness:
    """Everything needed to replay and re-validate one pipeline run."""

    n: int
    p: int
    seed: int
    support0: tuple[int, ...]
    support1: tuple[int, ...]
    support2: tuple[int, ...]
    support3: tuple[int, ...]
    alphas: tuple[ExactMatrix, ...]
    h_achieved: int
    h_required: int
    union_size: int
    grid_det: Fraction

    def supports_union(self) -> set[int]:
        return set(self.support0) | set(self.support1) | set(self.support2) | set(self.support3)


def _support_of(matrix: ExactMatrix, basis_index: dict) -> set[int]:
    out = set()
    for i in range(matrix.rows):
        for j in range(matrix.cols):
            if matrix[i, j]:
                out.add(basis_index[(i, j)])
    return out


def _stage_budgets(n: int, p: int) -> tuple[int, int, int, int]:
    """Support budgets of stages 0..3 (see the module docstring)."""
    middle = math.comb(2 * p, p + 1)
    return n, n * middle, n, n * (middle - math.comb(2 * p - 2, p - 1))


def _independent_rows(m: ExactMatrix) -> bool:
    """Whether the rows of m are linearly independent over Q.

    Full rank mod RANK_PRIME proves full rank over Q; only a short modular
    rank needs the exact elimination to decide.
    """
    return rank_mod(m) == m.rows or rank_exact(m) == m.rows


def validate_witness(witness: KeyLemmaWitness, basis: Sequence[ExactMatrix]) -> None:
    """Re-check every claim of a witness from scratch; raises ValueError."""
    n, p = witness.n, witness.p
    budgets = _stage_budgets(n, p)
    supports = (witness.support0, witness.support1, witness.support2, witness.support3)
    for idx, (sup, cap) in enumerate(zip(supports, budgets)):
        if len(sup) > cap:
            raise ValueError(f"support {idx} has {len(sup)} > budget {cap}")
    union = witness.supports_union()
    if witness.union_size != len(union):
        raise ValueError("union size mismatch")
    if witness.h_achieved != n * n - len(union):
        raise ValueError("h_achieved mismatch")
    if witness.h_achieved < h_value(n, p):
        raise ValueError("h_achieved below the guaranteed count")
    if len(witness.alphas) != 2 * p + 1:
        raise ValueError("wrong number of alphas")
    stacked = ExactMatrix([[a[i, j] for i in range(n) for j in range(n)] for a in witness.alphas])
    if not _independent_rows(stacked):
        raise ValueError("alphas are linearly dependent")
    alpha0 = witness.alphas[0]
    det0 = det_exact(alpha0)
    if det0 == 0:
        raise ValueError("alpha^0 is singular")
    _, numeric = commutator_matrix(normalize_pivot(SliceFamily(p, n, n, witness.alphas)))
    value = det_exact(numeric)
    if value == 0:
        raise ValueError("commutator grid determinant vanishes")
    if value != witness.grid_det:
        raise ValueError("stored grid determinant does not replay")
    # every alpha must live inside the claimed supports: express each alpha
    # in the basis and check that its coordinates stay in the union
    columns = ExactMatrix(
        [[b[i, j] for b in basis] for i in range(n) for j in range(n)]
    )
    inv_columns = invert(columns)
    for which, alpha in enumerate(witness.alphas):
        vec = ExactMatrix([[alpha[i, j]] for i in range(n) for j in range(n)])
        coeffs = inv_columns * vec
        used = {idx for idx in range(len(basis)) if coeffs[idx, 0] != 0}
        if not used <= union:
            raise ValueError(f"alpha^{which} uses basis vectors outside the supports")


def _middle_pairs(p: int) -> list[tuple[int, int]]:
    """Distinct diagonal commutator pairs not touching index 1 or 2p."""
    grid = commutator_pattern(p)
    pairs = []
    for i in range(grid.block_rows):
        label = grid.label(i, i)
        if label.is_zero:
            continue
        a, b = label.pair
        if a in (1, 2 * p) or b in (1, 2 * p):
            continue
        if (a, b) not in pairs:
            pairs.append((a, b))
    return pairs


_ATTEMPTS = 5


def key_lemma_search(
    n: int, p: int, basis: Optional[Sequence[ExactMatrix]] = None, seed: int = 0
) -> KeyLemmaWitness:
    """Run the staged pipeline and return a fully validated witness.

    Implemented for p in {1, 2}; each stage fixes the (shrunken) witness point
    of the previous one, exactly in pipeline order.  Retries the whole run a
    few times on stage failure (fresh derived seeds) before giving up with a
    KeyLemmaStageError that names the stage failure of every attempt.
    """
    if p not in (1, 2):
        raise NotImplementedError("pipeline implemented for p in {1, 2}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if basis is None:
        basis = elementary_basis(n)
    basis = list(basis)
    if len(basis) != n * n:
        raise KeyLemmaStageError("stage P0: basis must have n^2 elements")
    stacked = ExactMatrix([[b[i, j] for i in range(n) for j in range(n)] for b in basis])
    if not _independent_rows(stacked):
        raise KeyLemmaStageError("stage P0: basis does not span the matrix space")
    residues = [reduce_mod(b) for b in basis]
    if any(r is None for r in residues):
        raise KeyLemmaStageError("stage P0: a basis denominator is divisible by RANK_PRIME")

    failures = []
    for attempt in range(_ATTEMPTS):
        try:
            return _run_pipeline(n, p, basis, residues, seed, attempt)
        except KeyLemmaStageError as exc:
            failures.append(f"attempt {attempt}: {exc}")
    raise KeyLemmaStageError(f"all {_ATTEMPTS} attempts failed: " + "; ".join(failures))


def _mul_mod(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two integer grids, entries reduced into [0, RANK_PRIME)."""
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) % RANK_PRIME for col in cols] for row in x]


def _commutator_mod(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> list[list[int]]:
    """[X, Y] = XY - YX of two square integer grids, entries in [0, RANK_PRIME)."""
    x_cols, y_cols = list(zip(*x)), list(zip(*y))
    return [
        [
            (sum(map(mul, x_row, y_col)) - sum(map(mul, y_row, x_col))) % RANK_PRIME
            for x_col, y_col in zip(x_cols, y_cols)
        ]
        for x_row, y_row in zip(x, y)
    ]


def _grid_rows(pattern: SymbolicBlockMatrix, commutators: dict, n: int) -> list[list[int]]:
    """Integer rows of a commutator grid, given the rows of [X_i, X_j] per pair."""
    zero = [[0] * n for _ in range(n)]
    blocks: dict[BlockLabel, list[list[int]]] = {}

    def block(label: BlockLabel) -> list[list[int]]:
        if label.is_zero:
            return zero
        rows = blocks.get(label)
        if rows is None:
            rows = commutators[label.pair]
            if label.sign < 0:
                rows = [[-v for v in row] for row in rows]
            blocks[label] = rows
        return rows

    out = []
    for labels in pattern.labels:
        cells = [block(label) for label in labels]
        for i in range(n):
            out.append([v for cell in cells for v in cell[i]])
    return out


def _run_pipeline(
    n: int,
    p: int,
    basis: Sequence[ExactMatrix],
    residues: Sequence[ExactMatrix],
    seed: int,
    attempt: int,
) -> KeyLemmaWitness:
    """One attempt of the staged search; residues is the basis mod RANK_PRIME."""
    arity = n * n
    budgets = _stage_budgets(n, p)
    entries = _basis_entries(basis)
    entries_mod = _basis_entries(residues)

    def build(coords: Sequence) -> ExactMatrix:
        return ExactMatrix(_grid_from_entries(coords, entries, n))

    def build_mod(coords: Sequence) -> list[list[int]]:
        """Integer rows congruent to build(coords) mod RANK_PRIME."""
        return _grid_from_entries(coords, entries_mod, n)

    def run_stage(stage: int, poly: PolynomialEvaluator) -> SupportWitness:
        """Search, stopping at the stage budget, then shrink the witness point."""
        stage_seed = child_seed(seed, attempt, stage)
        try:
            found = support_restriction_search(poly, stage_seed, stop_at=budgets[stage])
            return shrink_witness(poly, found, stage_seed)
        except KeyLemmaStageError as exc:
            raise KeyLemmaStageError(f"stage P{stage}: {exc}") from None

    # every stage evaluator below returns det(M mod RANK_PRIME) of its stage
    # matrix M, built from residues: nonzero proves det(M) nonzero, and a
    # zero only rejects the sample

    # stage 0: the determinant itself
    w0 = run_stage(0, PolynomialEvaluator(arity, n, lambda x: det_mod_rows(build_mod(x))))
    alpha0 = build(w0.point)
    # adj(alpha^0) is integral for integral alpha0; otherwise its denominators
    # are products of basis denominators, prime to RANK_PRIME (stage P0), so
    # the residue exists
    adj0 = [list(row) for row in reduce_mod(invert(alpha0) * det_exact(alpha0))]

    def normalized(coords: Sequence) -> list[list[int]]:
        return _mul_mod(adj0, build_mod(coords))

    # stage 1: middle slices v_2 .. v_{2p-1}
    middles = list(range(2, 2 * p))
    fixed: dict[int, ExactMatrix] = {}
    fixed_mod: dict[int, list[list[int]]] = {}  # adj0 * fixed[i], mod RANK_PRIME
    if p == 1:
        # no middle slices exist; fix v_2 = v_2p here against a seeded
        # auxiliary matrix so the stage budget n * binom(2,2) = n is used
        rng_aux = random.Random(child_seed(seed, attempt, 0xA0))
        aux = [[rng_aux.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        w1 = run_stage(
            1,
            PolynomialEvaluator(
                arity, n, lambda x: det_mod_rows(_commutator_mod(aux, normalized(x)))
            ),
        )
        support1 = w1.support
        fixed[2] = build(w1.point)
        fixed_mod[2] = normalized(w1.point)
    else:
        pairs = _middle_pairs(p)
        slot_of = {m: s for s, m in enumerate(middles)}

        def eval_stage1(x: Sequence) -> int:
            mats = {
                m: normalized(x[slot_of[m] * arity : (slot_of[m] + 1) * arity])
                for m in middles
            }
            value = 1
            for a, b in pairs:
                value = value * det_mod_rows(_commutator_mod(mats[a], mats[b])) % RANK_PRIME
                if value == 0:
                    break
            return value

        w1 = run_stage(1, PolynomialEvaluator(len(middles) * arity, 2 * n * len(pairs), eval_stage1))
        used = set()
        for var in w1.support:
            used.add(var % arity)
        support1 = tuple(sorted(used))
        for m in middles:
            coords = w1.point[slot_of[m] * arity : (slot_of[m] + 1) * arity]
            fixed[m] = build(coords)
            fixed_mod[m] = normalized(coords)

    # stage 2: v_1 against the fixed v_2
    w2 = run_stage(
        2,
        PolynomialEvaluator(
            arity, n, lambda x: det_mod_rows(_commutator_mod(normalized(x), fixed_mod[2]))
        ),
    )
    fixed[1] = build(w2.point)
    fixed_mod[1] = normalized(w2.point)

    # stage 3: the last slice v_2p through the full commutator grid.  The
    # commutators among v_1 .. v_{2p-1} do not move with the sample, so they
    # are taken once; an evaluation computes only [v_i, v_2p] for i < 2p
    if p == 1:
        support3: tuple[int, ...] = ()
    else:
        last = 2 * p
        pattern = commutator_pattern(p)
        commutators = {
            (i, j): _commutator_mod(fixed_mod[i], fixed_mod[j])
            for i in range(1, last)
            for j in range(i + 1, last)
        }

        def eval_stage3(x: Sequence) -> int:
            x_last = normalized(x)
            for i in range(1, last):
                commutators[i, last] = _commutator_mod(fixed_mod[i], x_last)
            return det_mod_rows(_grid_rows(pattern, commutators, n))

        w3 = run_stage(3, PolynomialEvaluator(arity, budgets[3], eval_stage3))
        support3 = w3.support
        fixed[last] = build(w3.point)

    alphas = (alpha0,) + tuple(fixed[i] for i in range(1, 2 * p + 1))
    stacked = ExactMatrix([[a[i, j] for i in range(n) for j in range(n)] for a in alphas])
    if not _independent_rows(stacked):
        raise KeyLemmaStageError("final: alphas are linearly dependent")
    _, numeric = commutator_matrix(normalize_pivot(SliceFamily(p, n, n, alphas)))
    grid_det = det_exact(numeric)
    if grid_det == 0:
        raise KeyLemmaStageError("final: commutator grid determinant vanishes")

    union = set(w0.support) | set(support1) | set(w2.support) | set(support3)
    witness = KeyLemmaWitness(
        n=n,
        p=p,
        seed=seed,
        support0=w0.support,
        support1=tuple(sorted(support1)),
        support2=w2.support,
        support3=tuple(sorted(support3)),
        alphas=alphas,
        h_achieved=n * n - len(union),
        h_required=h_value(n, p),
        union_size=len(union),
        grid_det=grid_det,
    )
    validate_witness(witness, basis)
    return witness


def skew_commutator_matrix(xs: Sequence[ExactMatrix], n: int) -> ExactMatrix:
    """The alternating 4x4 arrangement of [X_i, X_j] used by the refined p=2 audit."""
    zero = ExactMatrix.zeros(n, n)

    def c(i: int, j: int) -> ExactMatrix:
        return commutator(xs[i], xs[j])

    grid = [
        [zero, c(1, 2), c(1, 3), c(1, 4)],
        [-c(1, 2), zero, c(2, 3), c(2, 4)],
        [-c(1, 3), -c(2, 3), zero, c(3, 4)],
        [-c(1, 4), -c(2, 4), -c(3, 4), zero],
    ]
    return ExactMatrix.from_blocks(grid)


def refined_p2_degree(n: int, seed: int = 0) -> int:
    """Measured degree of det(Id + A^-1 U) for the refined p=2 block pivot.

    A = diag([[0, C12], [-C12, 0]], Id_2n) with C12 = [v1, v2] fixed from a
    seeded draw; U is the rest of the skew commutator arrangement; the degree
    is measured along a random line in the joint (v3, v4) coordinates.
    """
    rng = random.Random(child_seed(seed, 0xF2))
    while True:
        v1 = ExactMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        v2 = ExactMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        c12 = commutator(v1, v2)
        if det_exact(c12) != 0:
            break
    zero = ExactMatrix.zeros(n, n)
    identity = ExactMatrix.identity(n)
    a = ExactMatrix.from_blocks(
        [
            [zero, c12, zero, zero],
            [-c12, zero, zero, zero],
            [zero, zero, identity, zero],
            [zero, zero, zero, identity],
        ]
    )
    a_inv = invert(a)
    big_identity = ExactMatrix.identity(4 * n)
    arity = n * n

    def evaluate(x: Sequence) -> Fraction:
        v3 = ExactMatrix([list(x[i * n : (i + 1) * n]) for i in range(n)])
        v4 = ExactMatrix([list(x[arity + i * n : arity + (i + 1) * n]) for i in range(n)])
        m = skew_commutator_matrix([None, v1, v2, v3, v4], n)
        return det_exact(big_identity + a_inv * (m - a))

    poly = PolynomialEvaluator(2 * arity, 6 * n, evaluate)
    return degree_along_line(poly, child_seed(seed, 0xF3))


def reduced_diagonal_degree(n: int, p: int, seed: int = 0) -> tuple[int, int]:
    """(expected, measured) degree of the product of distinct diagonal dets.

    Expected is 2n per distinct non-excluded diagonal commutator; measured
    interpolates the product along a random line in the joint middle-slice
    coordinates.
    """
    pairs = _middle_pairs(p)
    middles = list(range(2, 2 * p))
    slot_of = {m: s for s, m in enumerate(middles)}
    arity = n * n

    def evaluate(x: Sequence) -> Fraction:
        mats = {
            m: ExactMatrix(
                [list(x[slot_of[m] * arity + i * n : slot_of[m] * arity + (i + 1) * n]) for i in range(n)]
            )
            for m in middles
        }
        value = Fraction(1)
        for a, b in pairs:
            value *= det_exact(commutator(mats[a], mats[b]))
        return value

    expected = 2 * n * len(pairs)
    poly = PolynomialEvaluator(len(middles) * arity, max(expected, 1), evaluate)
    return expected, degree_along_line(poly, child_seed(seed, 0xD3))
