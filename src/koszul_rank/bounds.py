"""Closed-form rank lower bounds, crossover scans, and border-rank certificates.

The bound kinds:

  strassen        (3/2) n^2
  blaser          (5/2) n^2 - 3n
  landsberg:p     (3 - 1/(p+1)) n^2 - (1 + 2p binom(2p,p)) n
  mr:p            (1 + p/(p+1)) nm + n^2 - (2 binom(2p,p+1) - binom(2p-2,p-1) + 2) n
  mr_p2_refined   (8/3) n^2 - 7n
  mr_p3_refined   (11/4) n^2 - 17n   (no source in PAPER.md, see below)

mr_p3_refined has no source in the paper's abstract, which states a refined
strategy for p = 2 only; it stays as a formula to compare against, not as a
proved bound.

All values are exact rationals; reports carry the integer ceiling and a
vacuity flag (a bound below zero says nothing).  mr:p at p = 1 coincides with
blaser's formula, coefficient 2*binom(2,2) - binom(0,0) + 2 = 3.

certify_border_rank restricts a tensor to a random (2p+1)-dimensional
subspace of covectors, assembles the flattening, and returns
ceil(rank / binom(2p,p)), a valid border-rank (hence rank) lower bound;
binom(2p,p) is the flattening rank of a single rank-one tensor.

The flattening rank is computed over GF(2^61 - 1) on the row-scaled integer
matrix (exact_linalg.rank_mod).  That rank never exceeds the rank over Q, so
the certified bound stays valid: an unlucky prime can only weaken a
certificate, never inflate it.  Exact rational ranks remain wherever a lower
rank would be unsound, such as the covector independence check.

Before any trial the tensor is split as T = T' (x) Id_m in its B and C
factors (tensor_core.identity_factor; m = 1 when nothing splits), and every
trial assembles the flattening F' of the reduced tensor T' instead of F.  For
M_{n,n,m} this is the flattening of the n x n slices alpha^T, m times
smaller on each side.  The rank is unchanged, not estimated:

  * each contraction X = alpha . T equals X' (x) Id_m with X' = alpha . T',
    and assemble places the slices, scaled by fixed signs, into fixed block
    positions, so F[(J, b'm+s), (I, c'm+t)] = F'[(J, b'), (I, c')] * delta(s, t)
    entrywise: after a row and column permutation F is the block diagonal of
    m copies of F';
  * F and F' hold the same nonzero entries, so they are stored over the
    same denominator D, and row (J, b'm+s) of F holds exactly the nonzero
    integers of row (J, b') of F'.  exact_linalg._integer_grid divides each
    of the two rows by the same gcd(D, row), which is scaling it by the lcm
    of its own entries' denominators, so the scaled F is again m copies of
    the scaled F';
  * the rank of a block-diagonal matrix is the sum of the blocks' ranks over
    any field, so rank_mod(F) = m * rank_mod(F') exactly, and likewise over Q.

F' itself is not eliminated either: flattening.flattening_rank_mod ranks
its Schur complement.  F' = [[Q, 0], [diag(X_0), R]] with b x b blocks, and
under two hypotheses,

  (1) RANK_PRIME divides no denominator of the slices, and
  (2) X_0 is invertible over GF(RANK_PRIME),

rank_mod(F') = binom(2p, p) * b + rank(S) exactly, where S is the
commutator grid (flattening.commutator_pattern) of the slices X_0^-1 X_i,
built and ranked as int rows over GF(RANK_PRIME):

  * by (1), every slice has an entrywise residue (exact_linalg.reduce_mod),
    and so has F', block by block.  rank_mod(F') is the rank of that
    residue: rank_mod scales each row of F' by an integer prime to
    RANK_PRIME, a unit in GF(RANK_PRIME).  From the slices' residues on,
    the Schur path works on residues alone;
  * by (2), left-multiplying every block row by X_0^-1 is invertible and
    turns F' into [[Q', 0], [Id, R']]; eliminating with the Id rows leaves
    Id (rank binom(2p, p) * b) beside -(Q' R'), and commutator_pattern checks
    cell by cell that -(Q' R') is S.  The identity holds over any field.

When (1) or (2) fails, F' is assembled and ranked densely, so every value
is the rank_mod of F' in both cases.  S is binom(2p, p+1) * b wide against
binom(2p+1, p) * b for F' (45 against 105 for M_3 at p = 3).

The covector draws, the independence check (on the same dimA) and every
recorded rank are therefore the same as on the dense flattening, and the
certificate keeps its soundness: it may still only under-report through the
prime, never through the reduction or the Schur complement.  The dense side
comb(2p+1, p) * dimB is what the command-line size cap measures, because the
fallback assembles it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact_linalg import RANK_PRIME
from .flattening import flattening_rank_mod
from .tensor_core import Tensor3, identity_factor, slice_family

SQUARE_ONLY_TAGS = {"strassen", "blaser", "landsberg", "mr_p2_refined", "mr_p3_refined"}
PARAMETRIC_TAGS = {"landsberg", "mr"}
ALL_TAGS = {"strassen", "blaser", "landsberg", "mr", "mr_p2_refined", "mr_p3_refined"}


class DegenerateSubspaceError(RuntimeError):
    """No usable covector subspace was found (or p does not fit the tensor)."""


@dataclass(frozen=True)
class BoundKind:
    tag: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ValueError(f"unknown bound kind {self.tag!r}")
        if self.tag in PARAMETRIC_TAGS:
            if self.p is None or self.p < 1:
                raise ValueError(f"kind {self.tag!r} needs p >= 1")
        elif self.p is not None:
            raise ValueError(f"kind {self.tag!r} takes no p")

    def __str__(self) -> str:
        return f"{self.tag}:{self.p}" if self.p is not None else self.tag

    @classmethod
    def parse(cls, text: str) -> "BoundKind":
        if ":" in text:
            tag, p_text = text.split(":", 1)
            return cls(tag, int(p_text))
        return cls(text)


@dataclass(frozen=True)
class BoundReport:
    kind: BoundKind
    n: int
    m: int
    value: Fraction
    ceiling: int
    vacuous: bool


def mr_coefficient(p: int) -> int:
    """2 binom(2p,p+1) - binom(2p-2,p-1) + 2, the abstract's coefficient of n."""
    return 2 * math.comb(2 * p, p + 1) - math.comb(2 * p - 2, p - 1) + 2


def _formula(kind: BoundKind) -> tuple[Fraction, Fraction, int]:
    """(a, b, c) with value(n, m) = a n m + b n^2 - c n, binomials taken once."""
    p = kind.p
    if kind.tag == "strassen":
        return Fraction(0), Fraction(3, 2), 0
    if kind.tag == "blaser":
        return Fraction(0), Fraction(5, 2), 3
    if kind.tag == "landsberg":
        return Fraction(0), 3 - Fraction(1, p + 1), 1 + 2 * p * math.comb(2 * p, p)
    if kind.tag == "mr":
        return 1 + Fraction(p, p + 1), Fraction(1), mr_coefficient(p)
    if kind.tag == "mr_p2_refined":
        return Fraction(0), Fraction(8, 3), 7
    if kind.tag == "mr_p3_refined":
        return Fraction(0), Fraction(11, 4), 17
    raise AssertionError(kind)  # pragma: no cover


def _report(kind: BoundKind, formula: tuple[Fraction, Fraction, int], n: int, m: int) -> BoundReport:
    a, b, c = formula
    value = a * n * m + b * n * n - c * n
    return BoundReport(kind, n, m, value, math.ceil(value), value < 0)


def bound_value(kind: BoundKind, n: int, m: Optional[int] = None) -> BoundReport:
    """Evaluate a bound formula exactly at (n, m); m defaults to n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m is None:
        m = n
    if kind.tag in SQUARE_ONLY_TAGS and m != n:
        raise ValueError(f"kind {kind} is defined only for m = n")
    return _report(kind, _formula(kind), n, m)


def best_mr(n: int) -> tuple[int, BoundReport]:
    """The p maximizing the mr:p ceiling at (n, n); ties break to smaller p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    best_p, best = 1, bound_value(BoundKind("mr", 1), n)
    for p in range(2, n + 1):
        if mr_coefficient(p) > 3 * n and best.value >= 0:
            break  # every later value is negative: (3 - 1/(p+1)) n^2 < coefficient * n
        report = bound_value(BoundKind("mr", p), n)
        if report.ceiling > best.ceiling:
            best_p, best = p, report
    return best_p, best


@dataclass(frozen=True)
class CrossoverReport:
    a: BoundKind
    b: BoundKind
    n_max: int
    first_geq: Optional[int]
    first_strict: Optional[int]
    first_geq_ceiling: Optional[int]
    first_strict_ceiling: Optional[int]
    monotone_after: Optional[bool]


def crossover(a: BoundKind, b: BoundKind, n_max: int = 1000) -> CrossoverReport:
    """First n where value(a) >= value(b) (and >), on exact values and ceilings.

    monotone_after reports whether value(a) - value(b) is nondecreasing from
    the first_geq point up to n_max.  The scan keeps only the previous
    difference, so its memory does not grow with n_max, and takes each
    kind's binomials once.
    """
    formula_a, formula_b = _formula(a), _formula(b)
    first_geq = first_strict = None
    first_geq_c = first_strict_c = None
    monotone = previous = None
    for n in range(1, n_max + 1):
        va, vb = _report(a, formula_a, n, n), _report(b, formula_b, n, n)
        diff = va.value - vb.value
        if first_geq is None and diff >= 0:
            first_geq, monotone = n, True
        elif monotone and diff < previous:
            monotone = False
        previous = diff
        if first_strict is None and diff > 0:
            first_strict = n
        if first_geq_c is None and va.ceiling >= vb.ceiling:
            first_geq_c = n
        if first_strict_c is None and va.ceiling > vb.ceiling:
            first_strict_c = n
    return CrossoverReport(a, b, n_max, first_geq, first_strict, first_geq_c, first_strict_c, monotone)


@dataclass(frozen=True)
class Certificate:
    """Replayable border-rank certificate from one flattening rank computation."""

    bound: int
    flattening_rank: int
    divisor: int
    p: int
    seed: int
    trials: int
    alphas: tuple[tuple[Fraction, ...], ...]
    trial_ranks: tuple[int, ...]
    prime: int


def _child_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index * 7919 + 12345) % (2**63)


def _draw(seed: int, count: int, dim: int) -> list[list[int]]:
    """count random integer covectors of length dim, entries in [-9, 9]."""
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(count)]


def certify_border_rank(
    tensor: Tensor3,
    p: int,
    alphas: Optional[Sequence[Sequence]] = None,
    seed: int = 0,
    trials: int = 3,
) -> Certificate:
    """Max over trials of ceil(rank(flattening) / binom(2p,p)).

    Covectors default to random integer vectors with entries in [-9, 9]; an
    explicit alphas list, which must be 2p + 1 covectors of length dimA
    (ValueError otherwise), replaces the random search as a single draw.  The
    result is a valid lower bound for the border rank (hence rank) of the
    tensor: ranks are taken mod RANK_PRIME, which can only under-report them.
    Each rank is m times the rank of the flattening of the reduced tensor
    T' with T = T' (x) Id_m, taken on its Schur complement (see the module
    docstring), which equals the rank of the full flattening.  Trials are
    indexed, so results are reproducible for a given seed; the first draw of
    the highest rank is kept.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if tensor.dim_b != tensor.dim_c:
        raise DegenerateSubspaceError("slices are not square (dimB != dimC)")
    count = 2 * p + 1
    if count > tensor.dim_a:
        raise DegenerateSubspaceError(f"p too large: need 2p+1 <= dimA = {tensor.dim_a}")
    if alphas is not None:
        if len(alphas) != count or any(len(a) != tensor.dim_a for a in alphas):
            raise ValueError(f"need {count} covectors of length dimA = {tensor.dim_a}")
        trials, draws = 1, [alphas]
    else:
        # each draw is made when the loop below ranks it, so memory does not grow with trials
        draws = (_draw(_child_seed(seed, index), count, tensor.dim_a) for index in range(trials))
    divisor = math.comb(2 * p, p)
    reduced, copies = identity_factor(tensor)
    ranks, best = [], None
    for draw in draws:
        try:
            family = slice_family(reduced, draw)
        except ValueError:
            continue  # dependent covectors
        rank = copies * flattening_rank_mod(family)
        ranks.append(rank)
        if best is None or rank > best[0]:
            best = rank, draw
    if best is None:
        raise DegenerateSubspaceError(
            "degenerate subspace after all trials" if alphas is None else "provided covectors are dependent"
        )
    rank, draw = best
    used = tuple(tuple(Fraction(x) for x in a) for a in draw)
    return Certificate(
        -(-rank // divisor), rank, divisor, p, seed, trials, used, tuple(ranks), RANK_PRIME
    )
