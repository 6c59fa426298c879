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

The evaluators work on residues throughout, with the int-row helpers of
exact_linalg.  Once per pipeline run the basis entries are reduced mod
RANK_PRIME, and adj(alpha^0) is taken as det * inverse of alpha^0's residue
rows, which stage 0 proved nonsingular; reduction mod the prime is a ring
homomorphism, so that is the residue of the exact adjugate.  An evaluation
builds its stage matrix M as int rows mod the prime and hands them to
det_mod_rows.  For an integer basis M is an integer matrix and
det(M mod p) = det(M) mod p, so every residue is the one det_mod(M) would
give and the search takes the same path.  A rational basis needs every
denominator prime to RANK_PRIME, where the residues exist and vanish exactly
when det_mod of the row-scaled matrix does; key_lemma_search rejects any
other basis at stage P0.

key_lemma_search runs stage 0, which fixes alpha^0, and then one loop over
the stage list of p (_STAGES; pipeline for p in {1, 2}).  Stage k searches
under budget k of _stage_budgets and fixes the slots it lists:

  stage 0   det over the matrix space          -> alpha^0, support <= n
  p = 1:
  stage 1   det([aux, X_2]), aux seeded        -> v_2, support <= n
  stage 2   det([X_1, fixed X_2])              -> v_1, support <= n
  p = 2:
  stage 1   dets of middle-slice commutators   -> v_2..v_{2p-1}, <= n*binom(2p,p+1)
  stage 2   det([X_1, fixed X_2])              -> v_1, support <= n
  stage 3   det of the Schur complement S      -> v_2p, <= n*(binom(2p,p+1)-binom(2p-2,p-1))

p = 1 has no middle slices, so its stage 1 fixes v_2 = v_2p against a seeded
auxiliary matrix, and its stage-3 budget is 0.  A stage that fixes several
slots samples their joint coordinates, n^2 per slot, and its support is
reduced mod n^2 to the basis vectors it weighs.  Each pass of the loop fixes
the sampled witness point of its slots.  The search stages touch only
residues: each slot keeps its point and its normalized residue rows, and the
2p + 1 exact alphas are built once, after the last stage.  Stage arithmetic
uses adjugate-normalized slices adj(alpha^0) * v (integer entries), which
rescales each stage polynomial by a nonzero constant without moving its zero
set or degree.  The product structure det(grid) = det(diagonal part) *
det(Schur factors) makes the final det != 0 automatic once every stage
succeeded; the witness is still checked once, over Q, by the helpers
validate_witness replays: _grid_det takes det_exact of the normalized
commutator grid, and the support and basis checks run after it.  A failed
final check retries the run.

Stage 3's S = B - A C^-1 D is the Schur complement of the commutator grid's
corner C = +-diag([X_1, X_2]) (flattening.schur_terms), a square matrix
whose side n*(binom(2p,p+1) - binom(2p-2,p-1)) is the stage budget.
det(grid) = +-det(C) * det(S) with det(C) = +-det([X_1, X_2])^binom(2p-2,p-1),
a unit mod the prime because stage 2 accepted det([X_1, X_2]); so the unit
factor leaves every verdict unchanged, and the search takes the path the
whole grid would give it.

Every stage after stage 0 but p = 2's stage 1 is linear in its normalized
sample V = adj(alpha^0) X: [aux, V] at p = 1, [V, X_2], and S.  Each
tabulates its map once per attempt with exact_linalg.linear_map_mod, with
adj(alpha^0) folded into the table's factors, so the table takes the
residue rows of X (the sample's basis combination, each entry reduced to
its least absolute residue, so an integer basis keeps small coordinates
small) and V is never formed.  The stage matrix has the residues
V would give it, so every verdict is the same, and an evaluation costs one
multiply-add per entry of X, one unpacking and one det_mod_rows.  p = 2's
stage 1 is bilinear in its two slices and normalizes each sample with one
mul_mod.  Sample points are drawn coordinate by coordinate with
getrandbits, exactly as random.randint would draw them (_random_point).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from typing import Callable, Iterable, Optional, Sequence

from .bounds import mr_coefficient
from .exact_linalg import (
    RANK_PRIME,
    Entry,
    ExactMatrix,
    Grid,
    _independent_rows,
    child_seed,
    commutator,
    commutator_mod,
    det_exact,
    det_mod_rows,
    invert,
    invert_mod,
    linear_map_mod,
    mul_mod,
    reduce_mod,
)
from .flattening import (
    commutator_matrix,
    commutator_pattern,
    normalize_pivot,
    schur_terms,
)
from .tensor_core import SliceFamily

# Random points tried per candidate support before it is rejected; the first
# full-support test tries twice as many, and each escalation round 8 times more.
_SAMPLE_BUDGET = 4
# least absolute residues mod RANK_PRIME lie in [-_HALF, _HALF]
_HALF = RANK_PRIME // 2


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


def _random_point(rng: random.Random, arity: int, support: Iterable[int], span: int) -> list[int]:
    """A point zero off support, each coordinate what rng.randint(-span, span) draws.

    CPython's randint(-span, span) is -span + getrandbits(k), with k the bit
    length of the width 2 span + 1, redrawn while it is not below the width;
    drawing that directly skips randint's call chain and leaves the stream
    unchanged.
    """
    getrandbits = rng.getrandbits
    width = 2 * span + 1
    k = width.bit_length()
    point = [0] * arity
    for i in support:
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        point[i] = r - span
    return point


def support_restriction_search(
    poly: PolynomialEvaluator,
    seed: int = 0,
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
            point = _random_point(rng, poly.arity, support, span)
            value = poly.evaluate(point)
            if value != 0:
                return tuple(point), value
        return None

    support = list(range(poly.arity))
    found = sample(support, _SAMPLE_BUDGET * 2)
    if found is None:
        raise KeyLemmaStageError("polynomial appears identically zero (probabilistic)")
    point, value = found

    budget = _SAMPLE_BUDGET
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
        point = _random_point(rng, poly.arity, witness.support, span)
        value = poly.evaluate(point)
        if value != 0:
            return SupportWitness(witness.support, tuple(point), value)
        span *= 2
    return witness


def h_value(n: int, p: int) -> int:
    """n^2 - n(2 binom(2p,p+1) - binom(2p-2,p-1) + 2); may be negative."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return n * n - n * mr_coefficient(p)


def elementary_basis(n: int) -> list[ExactMatrix]:
    """The n^2 matrix units, row-major."""
    out = []
    for r in range(n):
        for c in range(n):
            grid = [[0] * n for _ in range(n)]
            grid[r][c] = 1
            out.append(ExactMatrix(grid))
    return out


def _basis_entries(basis: Sequence) -> list[tuple[tuple[int, int, Entry], ...]]:
    """Each basis matrix's (ExactMatrix or rows) nonzero entries (i, j, value), listed once."""
    return [
        tuple((i, j, v) for i, row in enumerate(b) for j, v in enumerate(row) if v)
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
        value = det_exact(commutator_matrix(family))
        if value != 0:
            return NonvanishingReport(True, family, t + 1, seed, value)
    return NonvanishingReport(False, None, trials, seed, None)


def degree_along_line(poly: PolynomialEvaluator, seed: int = 0) -> int:
    """Degree of t -> P(x0 + t v) for a random integer line, by exact interpolation.

    Evaluates at degree_bound + 3 points; the last two verify the Newton
    interpolant, so a non-polynomial evaluator (or an understated bound) is
    detected instead of silently mismeasured.  poly.evaluate must return
    exact values: residues mod a prime do not interpolate over Q.  Equals the
    total degree of P with high probability over the line choice; with arity
    0 the line is one point and P a constant, of degree 0.
    """
    rng = random.Random(child_seed(seed, 0xDE6))
    base = [rng.randint(-9, 9) for _ in range(poly.arity)]
    direction = [rng.randint(-9, 9) for _ in range(poly.arity)]
    if poly.arity and not any(direction):
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


def _stage_budgets(n: int, p: int) -> tuple[int, int, int, int]:
    """Support budgets of stages 0..3 (see the module docstring)."""
    middle = math.comb(2 * p, p + 1)
    return n, n * middle, n, n * (middle - math.comb(2 * p - 2, p - 1))


def _stacked(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    """One row per n x n matrix: its n^2 entries, row-major."""
    return ExactMatrix([[x for row in m for x in row] for m in mats])


def _grid_det(alphas: tuple[ExactMatrix, ...], n: int, p: int) -> Fraction:
    """det_exact of the alphas' commutator grid, normalized by alpha^0.

    Checks first that there are 2p + 1 independent alphas with alpha^0
    nonsingular; raises ValueError naming the first failed check, a
    vanishing determinant included.
    """
    if len(alphas) != 2 * p + 1:
        raise ValueError("wrong number of alphas")
    if not _independent_rows(_stacked(alphas)):
        raise ValueError("alphas are linearly dependent")
    if det_exact(alphas[0]) == 0:
        raise ValueError("alpha^0 is singular")
    value = det_exact(commutator_matrix(normalize_pivot(SliceFamily(p, n, n, alphas))))
    if value == 0:
        raise ValueError("commutator grid determinant vanishes")
    return value


def _check_counts(witness: KeyLemmaWitness) -> None:
    """The supports against their budgets, and the counts stored with them."""
    n, p = witness.n, witness.p
    supports = (witness.support0, witness.support1, witness.support2, witness.support3)
    for idx, (sup, cap) in enumerate(zip(supports, _stage_budgets(n, p))):
        if len(sup) > cap:
            raise ValueError(f"support {idx} has {len(sup)} > budget {cap}")
    union = witness.supports_union()
    if witness.union_size != len(union):
        raise ValueError("union size mismatch")
    if witness.h_achieved != n * n - len(union):
        raise ValueError("h_achieved mismatch")
    if witness.h_required != h_value(n, p):
        raise ValueError("h_required is not h(n, p)")
    # implied by the checks above: the budgets sum to n^2 - h(n, p), so the
    # union leaves at least h(n, p) basis vectors untouched
    if witness.h_achieved < witness.h_required:
        raise ValueError("h_achieved below the guaranteed count")


def _check_alphas_in_supports(witness: KeyLemmaWitness, basis: Sequence[ExactMatrix]) -> None:
    """Every alpha's coordinates in the basis vanish off the supports' union."""
    union = witness.supports_union()
    coords = _stacked(witness.alphas) * invert(_stacked(basis))
    for which, row in enumerate(coords):
        if any(x for idx, x in enumerate(row) if idx not in union):
            raise ValueError(f"alpha^{which} uses basis vectors outside the supports")


def validate_witness(witness: KeyLemmaWitness, basis: Sequence[ExactMatrix]) -> None:
    """Re-check every claim of a stored witness from scratch; raises ValueError.

    This is the replay a reader runs on a witness, with nothing but its
    fields and the basis.  It recomputes the grid determinant with _grid_det,
    the helper the pipeline uses to obtain it, so the two cannot drift apart.
    """
    _check_counts(witness)
    if _grid_det(witness.alphas, witness.n, witness.p) != witness.grid_det:
        raise ValueError("stored grid determinant does not replay")
    _check_alphas_in_supports(witness, basis)


def _middle_pairs(p: int) -> list[tuple[int, int]]:
    """Distinct diagonal commutator pairs not touching index 1 or 2p."""
    grid = commutator_pattern(p)
    pairs = []
    for i in range(grid.block_rows):
        label = grid.label(i, i)
        if label is None:
            continue
        a, b = label.pair
        if a in (1, 2 * p) or b in (1, 2 * p):
            continue
        if (a, b) not in pairs:
            pairs.append((a, b))
    return pairs


def _schur_map(
    fixed: dict[int, list[list[int]]], adj0: Optional[Grid], n: int, p: int, prime: int = RANK_PRIME
) -> Callable[[Sequence[Sequence[int]]], list[list[int]]]:
    """X -> S mod prime, for the slices fixed[1 .. 2p-1] and X_2p = adj0 X.

    S = B - A C^-1 D is the Schur complement of schur_terms(p).  A term
    without X_2p is a constant of linear_map_mod; in the others, the factor
    [X_a, adj0 X] turns the term into two of its sandwiches,

        sign * L [X_a, adj0 X] R = sign * (L X_a adj0) X R - sign * (L adj0) X (X_a R).

    adj0 None stands for the identity, as every None factor does here, so X
    is then X_2p itself.  Raises KeyLemmaStageError when [X_1, X_2] is
    singular mod prime.
    """
    k = invert_mod(commutator_mod(fixed[1], fixed[2], prime), prime)
    if k is None:
        raise KeyLemmaStageError("stage P3: [X_1, X_2] is singular mod the prime")
    last = 2 * p
    blocks = schur_terms(p)

    @cache
    def bracket(pair: tuple[int, int]) -> list[list[int]]:
        return commutator_mod(fixed[pair[0]], fixed[pair[1]], prime)

    def product(x: Optional[list[list[int]]], y: Optional[list[list[int]]]) -> Optional[list[list[int]]]:
        """x y mod prime, with None for the identity."""
        if x is None or y is None:
            return y if x is None else x
        return mul_mod(x, y, prime)

    terms, constants = [], []
    for bi, block_row in enumerate(blocks):
        for bj, cell in enumerate(block_row):
            for term in cell:
                # the term's factors with K between two of them; None is [X_a, V]
                factors = [None if pair[1] == last else bracket(pair) for pair in term.pairs]
                factors[1:1] = [k] * (len(factors) - 1)
                if None not in factors:
                    constants.append((bi, bj, term.sign, reduce(product, factors)))
                    continue
                at = factors.index(None)
                left = reduce(product, factors[:at], None)
                right = reduce(product, factors[at + 1 :], None)
                x_a = fixed[term.pairs[at // 2][0]]
                terms += [
                    (bi, bj, term.sign, product(product(left, x_a), adj0), right),
                    (bi, bj, -term.sign, product(left, adj0), product(x_a, right)),
                ]
    return linear_map_mod(n, len(blocks), terms, constants, prime)


_Residue = Callable[[Sequence[int]], Grid]  # coordinates -> their alpha mod RANK_PRIME, least absolute residues
_Evaluate = Callable[[Sequence[int]], int]  # coordinates -> a det residue


@dataclass(frozen=True)
class _Stage:
    """One search stage after stage 0.

    slots are the slices it fixes; its sample holds n^2 coordinates per slot,
    in this order.  degree(n) is its degree bound.  build(fixed, adj0,
    residue, n, p, seed) turns the slices fixed so far (adj0 * alpha^i mod
    RANK_PRIME, by slot), adj0 = adj(alpha^0) mod RANK_PRIME, the map from
    basis coordinates to the residue rows of their alpha, and the attempt's
    seed into the evaluator.  A stage linear in the normalized slice
    V = adj0 X folds adj0 into its linear_map_mod table, which then takes
    the residue rows of X itself.  The evaluator returns det(M mod
    RANK_PRIME) of the stage matrix M: nonzero proves det(M) nonzero, and a
    zero only rejects the sample.
    """

    slots: tuple[int, ...]
    degree: Callable[[int], int]
    build: Callable[[dict[int, Grid], Grid, _Residue, int, int, int], _Evaluate]


def _aux_bracket(fixed: dict[int, Grid], adj0: Grid, residue: _Residue, n: int, p: int, seed: int) -> _Evaluate:
    """det([aux, V]) against a seeded auxiliary matrix, for p = 1's lone slot v_2.

    [aux, adj0 X] = (aux adj0) X - adj0 X aux is linear in X.
    """
    rng = random.Random(child_seed(seed, 0xA0))
    aux = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    bracket = linear_map_mod(n, 1, [(0, 0, 1, mul_mod(aux, adj0), None), (0, 0, -1, adj0, aux)])
    return lambda x: det_mod_rows(bracket(residue(x)))


def _middle_product(fixed: dict[int, Grid], adj0: Grid, residue: _Residue, n: int, p: int, seed: int) -> _Evaluate:
    """Product of det([X_a, X_b]) over the middle pairs of X_2 .. X_{2p-1}.

    Bilinear in the sampled slices, so each sample is normalized by adj0.
    """
    pairs, arity = _middle_pairs(p), n * n

    def evaluate(x: Sequence[int]) -> int:
        mats = [mul_mod(adj0, residue(x[k : k + arity])) for k in range(0, len(x), arity)]
        value = 1
        for a, b in pairs:
            value = value * det_mod_rows(commutator_mod(mats[a - 2], mats[b - 2])) % RANK_PRIME
            if value == 0:
                break
        return value

    return evaluate


def _bracket_x2(fixed: dict[int, Grid], adj0: Grid, residue: _Residue, n: int, p: int, seed: int) -> _Evaluate:
    """det([V, X_2]); [adj0 X, X_2] = adj0 X X_2 - (X_2 adj0) X is linear in X."""
    bracket = linear_map_mod(n, 1, [(0, 0, 1, adj0, fixed[2]), (0, 0, -1, mul_mod(fixed[2], adj0), None)])
    return lambda x: det_mod_rows(bracket(residue(x)))


def _schur_det(fixed: dict[int, Grid], adj0: Grid, residue: _Residue, n: int, p: int, seed: int) -> _Evaluate:
    """det(S) for the Schur complement S of the grid's +-diag([X_1, X_2]) corner.

    S is linear in X with V = X_2p = adj0 X, and det(S) is det(grid) up to
    a unit, so every sample gets the verdict of the whole grid.
    """
    schur = _schur_map(fixed, adj0, n, p)
    return lambda x: det_mod_rows(schur(residue(x)))


# The stages after stage 0 of each p the pipeline implements; stage k of a
# list (counting from 1) searches under budget k of _stage_budgets.
_STAGES: dict[int, tuple[_Stage, ...]] = {
    1: (
        _Stage((2,), lambda n: n, _aux_bracket),
        _Stage((1,), lambda n: n, _bracket_x2),
    ),
    2: (
        _Stage((2, 3), lambda n: 2 * n * len(_middle_pairs(2)), _middle_product),
        _Stage((1,), lambda n: n, _bracket_x2),
        _Stage((4,), lambda n: n * len(schur_terms(2)), _schur_det),
    ),
}

_ATTEMPTS = 5


def key_lemma_search(
    n: int, p: int, basis: Optional[Sequence[ExactMatrix]] = None, seed: int = 0
) -> KeyLemmaWitness:
    """Run the staged pipeline and return a fully validated witness.

    Implemented for the p that have a stage list (NotImplementedError
    otherwise); each stage fixes the (shrunken) witness point of the previous
    one, exactly in pipeline order.  Raises ValueError when n < 2 or when the
    2p + 1 alphas cannot be independent in the n^2-dimensional matrix space.
    Retries the whole run a few times on stage failure (fresh derived seeds)
    before giving up with a KeyLemmaStageError that names the stage failure
    of every attempt.
    """
    if p not in _STAGES:
        raise NotImplementedError(f"pipeline implemented for p in {set(_STAGES)}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if 2 * p + 1 > n * n:
        raise ValueError(f"p too large for n: 2p + 1 = {2 * p + 1} alphas exceed n^2 = {n * n}")
    if basis is None:
        basis = elementary_basis(n)
    basis = list(basis)
    if len(basis) != n * n:
        raise KeyLemmaStageError("stage P0: basis must have n^2 elements")
    if not _independent_rows(_stacked(basis)):
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


def _run_pipeline(
    n: int,
    p: int,
    basis: Sequence[ExactMatrix],
    residues: Sequence[list[list[int]]],
    seed: int,
    attempt: int,
) -> KeyLemmaWitness:
    """One attempt of the staged search; residues is the basis mod RANK_PRIME."""
    arity = n * n
    budgets = _stage_budgets(n, p)
    entries_mod = _basis_entries(residues)
    # child_seed(attempt_seed, k) == child_seed(seed, attempt, k): tags compose
    attempt_seed = child_seed(seed, attempt)

    def build_mod(coords: Sequence) -> list[list[int]]:
        """Integer rows congruent to sum_k coords[k] * basis[k] mod RANK_PRIME."""
        return _grid_from_entries(coords, entries_mod, n)

    def run_stage(stage: int, poly: PolynomialEvaluator) -> SupportWitness:
        """Search, stopping at the stage budget, then shrink the witness point."""
        stage_seed = child_seed(attempt_seed, stage)
        try:
            found = support_restriction_search(poly, stage_seed, stop_at=budgets[stage])
            return shrink_witness(poly, found, stage_seed)
        except KeyLemmaStageError as exc:
            raise KeyLemmaStageError(f"stage P{stage}: {exc}") from None

    # stage 0: the determinant itself
    w0 = run_stage(0, PolynomialEvaluator(arity, n, lambda x: det_mod_rows(build_mod(x))))
    # adj(alpha^0) mod the prime is det * inverse of alpha^0's residue rows;
    # stage 0 accepted w0 on a nonzero det residue, so the inverse exists
    rows0 = build_mod(w0.point)
    det0 = det_mod_rows([list(row) for row in rows0])
    adj0 = [[det0 * v % RANK_PRIME for v in row] for row in invert_mod(rows0)]

    def residue(coords: Sequence) -> list[list[int]]:
        """The rows of build_mod(coords) reduced to least absolute residues."""
        return [[(v + _HALF) % RANK_PRIME - _HALF for v in row] for row in build_mod(coords)]

    points = {0: w0.point}  # each slot's witness point, the coordinates of alpha^i
    fixed_mod: dict[int, list[list[int]]] = {}  # adj0 * alpha^i, mod RANK_PRIME
    supports = [w0.support]

    for index, stage in enumerate(_STAGES[p], start=1):
        evaluate = stage.build(fixed_mod, adj0, residue, n, p, attempt_seed)
        found = run_stage(index, PolynomialEvaluator(len(stage.slots) * arity, stage.degree(n), evaluate))
        # variable v of the joint coordinates weighs basis vector v mod n^2
        supports.append(tuple(sorted({v % arity for v in found.support})))
        for slot, k in zip(stage.slots, range(0, len(found.point), arity)):
            points[slot] = found.point[k : k + arity]
            fixed_mod[slot] = mul_mod(adj0, build_mod(points[slot]))
    supports += [()] * (len(budgets) - len(supports))  # budgets a shorter list leaves unused

    # the exact alphas, built once; a failed final check retries the run
    entries = _basis_entries(basis)
    alphas = tuple(ExactMatrix(_grid_from_entries(points[i], entries, n)) for i in range(2 * p + 1))
    try:
        grid_det = _grid_det(alphas, n, p)
    except ValueError as exc:
        raise KeyLemmaStageError(f"final: {exc}") from None

    union = set().union(*supports)
    witness = KeyLemmaWitness(
        n, p, seed, *supports,  # support0 .. support3
        alphas=alphas,
        h_achieved=n * n - len(union),
        h_required=h_value(n, p),
        union_size=len(union),
        grid_det=grid_det,
    )
    _check_counts(witness)
    _check_alphas_in_supports(witness, basis)
    return witness


def _square(coords: Sequence, n: int) -> ExactMatrix:
    """The n x n matrix with the n^2 entries coords, row-major."""
    return ExactMatrix([list(coords[i * n : (i + 1) * n]) for i in range(n)])


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
    Needs n >= 2: 1 x 1 matrices commute, so C12 would never be invertible.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
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
        m = skew_commutator_matrix([None, v1, v2, _square(x[:arity], n), _square(x[arity:], n)], n)
        return det_exact(big_identity + a_inv * (m - a))

    poly = PolynomialEvaluator(2 * arity, 6 * n, evaluate)
    return degree_along_line(poly, child_seed(seed, 0xF3))


def reduced_diagonal_degree(n: int, p: int, seed: int = 0) -> tuple[int, int]:
    """(expected, measured) degree of the product of distinct diagonal dets.

    Expected is 2n per distinct non-excluded diagonal commutator; measured
    interpolates the product along a random line in the joint middle-slice
    coordinates.  p = 1 has no middle slices, so the product is the empty
    constant 1 and both are 0.
    """
    pairs = _middle_pairs(p)
    arity = n * n

    def evaluate(x: Sequence) -> Fraction:
        # slot m of the middle slices is the chunk of x from (m - 2) * n^2
        mats = [_square(x[k : k + arity], n) for k in range(0, len(x), arity)]
        value = Fraction(1)
        for a, b in pairs:
            value *= det_exact(commutator(mats[a - 2], mats[b - 2]))
        return value

    expected = 2 * n * len(pairs)
    poly = PolynomialEvaluator((2 * p - 2) * arity, max(expected, 1), evaluate)
    return expected, degree_along_line(poly, child_seed(seed, 0xD3))
