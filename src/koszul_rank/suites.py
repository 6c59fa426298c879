"""Seeded identity suites shared by the verify subcommand and the tests.

Each suite returns a list of CheckResult records; a suite passes when every
record does.  All randomness flows from the given seed through indexed
derived seeds, so reruns are byte-identical.
"""

from __future__ import annotations

import random
from typing import Sequence

from .exact_linalg import (
    ExactMatrix,
    child_seed,
    det_exact,
    det_rank_update,
    random_int_matrix,
    random_invertible,
    schur_block_det,
)
from .flattening import (
    CheckResult,
    assemble,
    check_structure,
    commutator_matrix,
    commutator_pattern,
    flattening_pattern,
    reference_pattern,
)
from .tensor_core import SliceFamily


def _det_factorization_check(p: int, n: int, trials: int, seed: int, name: str) -> CheckResult:
    """Signed det of the assembled flattening vs det of the commutator grid."""
    sym = flattening_pattern(p)
    for t in range(trials):
        rng = random.Random(child_seed(seed, p, n, t))
        xs = tuple(random_int_matrix(rng, n, n) for _ in range(2 * p))
        family = SliceFamily(p, n, n, (ExactMatrix.identity(n), *xs))
        big = det_exact(assemble(sym, family))
        small = det_exact(commutator_matrix(family))
        if big != small:
            return CheckResult(name, False, f"n={n} trial={t}: {big} != {small}")
    return CheckResult(name, True, f"n={n}: {trials} trials, det equal exactly")


def suite_strassen(n_values: Sequence[int] = (2, 3, 4), trials: int = 30, seed: int = 0):
    """det(p=1 flattening, X_0=Id) == det([X_1, X_2]) on random integer slices."""
    return [
        _det_factorization_check(1, n, trials, seed, f"strassen-det-identity-n{n}")
        for n in n_values
    ]


def suite_p2(n_values: Sequence[int] = (2, 3), trials: int = 10, seed: int = 0):
    """det(10n x 10n p=2 flattening) == det(4n x 4n commutator grid)."""
    return [
        _det_factorization_check(2, n, trials, seed, f"p2-det-factorization-n{n}")
        for n in n_values
    ]


def suite_p3() -> list[CheckResult]:
    """p=3 commutator grid: printed label placement (up to sign) and structure."""
    checks = []
    built = commutator_pattern(3)
    ref = reference_pattern(3)
    checks.append(
        CheckResult(
            "p3-commutator-pattern",
            built.same_pattern(ref, signed=False),
            "15x15 label placement matches the printed grid up to sign",
        )
    )
    checks.extend(check_structure(3).checks)
    return checks


def suite_remark(p_values: Sequence[int] = (2, 3, 4)) -> list[CheckResult]:
    """Structural claims about the commutator grid diagonal for each p."""
    checks: list[CheckResult] = []
    for p in p_values:
        for check in check_structure(p).checks:
            checks.append(CheckResult(f"p{p}-{check.name}", check.passed, check.detail))
    return checks


def suite_detlemmas(trials: int = 50, seed: int = 0) -> list[CheckResult]:
    """Both block-determinant identities against assembled determinants."""
    checks = []
    ok, detail = True, ""
    for t in range(trials):
        rng = random.Random(child_seed(seed, 1, t))
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x = random_invertible(rng, n, -5, 5)
        y = random_int_matrix(rng, n, m, -5, 5)
        z = random_int_matrix(rng, m, n, -5, 5)
        w = random_int_matrix(rng, m, m, -5, 5)
        assembled = ExactMatrix.from_blocks([[x, y], [z, w]])
        if schur_block_det(x, y, z, w) != det_exact(assembled):
            ok, detail = False, f"trial {t}: block determinant mismatch"
            break
    checks.append(
        CheckResult("schur-block-det", ok, detail or f"{trials} random instances, exact")
    )

    ok, detail = True, ""
    for t in range(trials):
        rng = random.Random(child_seed(seed, 2, t))
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_invertible(rng, n, -5, 5)
        u = random_int_matrix(rng, n, m, -5, 5)
        v = random_int_matrix(rng, n, m, -5, 5)
        if det_rank_update(a, u, v) != det_exact(a + u * v.transpose()):
            ok, detail = False, f"trial {t}: rank-update determinant mismatch"
            break
    checks.append(
        CheckResult("det-rank-update", ok, detail or f"{trials} random instances, exact")
    )
    return checks
