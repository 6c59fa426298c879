"""Support search, counting, nonvanishing sampling, degree audits, pipeline."""

import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from koszul_rank.exact_linalg import (
    RANK_PRIME,
    ExactMatrix,
    child_seed,
    commutator,
    det_exact,
    det_mod,
    invert,
)
from koszul_rank.flattening import assemble, commutator_pattern
from koszul_rank.keylemma import (
    KeyLemmaStageError,
    PolynomialEvaluator,
    degree_along_line,
    elementary_basis,
    generic_nonvanishing,
    h_value,
    key_lemma_search,
    reduced_diagonal_degree,
    refined_p2_degree,
    support_restriction_search,
    validate_witness,
)
from koszul_rank import keylemma
from koszul_rank.keylemma import _matrix_from_coords
from koszul_rank.tensor_core import SliceFamily
from oracles import gauss_rank


def det_evaluator(n):
    basis = elementary_basis(n)
    return PolynomialEvaluator(
        n * n, n, lambda x: det_exact(_matrix_from_coords(x, basis, n))
    )


def test_matrix_from_coords_is_the_basis_combination():
    rng = random.Random(31)
    n = 3
    basis = [
        ExactMatrix([[rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(n)] for _ in range(n)])
        for _ in range(n * n)
    ]
    for _ in range(5):
        coords = [rng.choice((0, rng.randint(-9, 9))) for _ in range(n * n)]
        expected = ExactMatrix.zeros(n, n)
        for x, b in zip(coords, basis):
            expected = expected + x * b
        assert _matrix_from_coords(coords, basis, n) == expected


def test_h_value_examples():
    assert h_value(10, 2) == 20
    assert h_value(10, 3) == -160
    assert h_value(9, 2) == 9


def test_h_value_identity():
    for n in (1, 4, 9, 25):
        for p in (1, 2, 3, 4):
            coefficient = 2 * comb(2 * p, p + 1) - comb(2 * p - 2, p - 1) + 2
            assert h_value(n, p) + n * coefficient == n * n


def test_support_search_product():
    poly = PolynomialEvaluator(4, 2, lambda x: Fraction(x[0] * x[1]))
    witness = support_restriction_search(poly, seed=1)
    assert witness.support == (0, 1)
    assert witness.value != 0


def test_support_search_linear():
    poly = PolynomialEvaluator(6, 1, lambda x: Fraction(sum(x)))
    witness = support_restriction_search(poly, seed=1)
    assert len(witness.support) == 1


def test_support_search_determinant():
    poly = det_evaluator(3)
    witness = support_restriction_search(poly, seed=1)
    assert len(witness.support) <= 3
    assert poly.evaluate(witness.point) == witness.value != 0


def test_support_search_deterministic_per_seed():
    poly = det_evaluator(3)
    a = support_restriction_search(poly, seed=7)
    b = support_restriction_search(poly, seed=7)
    assert (a.support, a.point, a.value) == (b.support, b.point, b.value)


def test_support_search_reports_zero_polynomial():
    poly = PolynomialEvaluator(3, 2, lambda x: Fraction(0))
    with pytest.raises(KeyLemmaStageError, match="identically zero"):
        support_restriction_search(poly, seed=1)


def test_support_search_stop_at():
    poly = det_evaluator(3)
    witness = support_restriction_search(poly, seed=2, stop_at=6)
    assert 3 <= len(witness.support) <= 6
    assert poly.evaluate(witness.point) == witness.value != 0


def test_degree_along_line_determinants():
    for m in range(2, 7):
        assert degree_along_line(det_evaluator(m), seed=1) == m


def test_degree_along_line_commutator():
    rng = random.Random(3)
    for n in (2, 3):
        fixed = ExactMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        basis = elementary_basis(n)
        poly = PolynomialEvaluator(
            n * n,
            n,
            lambda x, basis=basis, n=n, fixed=fixed: det_exact(
                commutator(_matrix_from_coords(x, basis, n), fixed)
            ),
        )
        assert degree_along_line(poly, seed=4) == n


def test_degree_along_line_constant():
    poly = PolynomialEvaluator(5, 3, lambda x: Fraction(7))
    assert degree_along_line(poly, seed=1) == 0


def test_degree_along_line_detects_non_polynomial():
    poly = PolynomialEvaluator(2, 1, lambda x: Fraction(max(x[0], 0)))
    with pytest.raises(ValueError, match="interpolation inconsistency"):
        degree_along_line(poly, seed=1)


def test_generic_nonvanishing_small_cases():
    report = generic_nonvanishing(2, 1, seed=0)
    assert report.nonzero and report.trials_used <= 5
    assert det_exact(commutator(report.witness.slices[1], report.witness.slices[2])) == report.det
    report = generic_nonvanishing(3, 2, seed=0)
    assert report.nonzero and report.trials_used <= 5
    for x in report.witness.slices[1:]:
        assert x.trace() == 0


def test_generic_nonvanishing_preconditions():
    with pytest.raises(ValueError, match="p too large"):
        generic_nonvanishing(1, 1)
    with pytest.raises(ValueError, match="p too large"):
        generic_nonvanishing(2, 2)  # 2p+1 = 5 > 4 = n^2


def test_key_lemma_p1_small():
    witness = key_lemma_search(3, 1, seed=0)
    assert len(witness.support0) <= 3
    assert len(witness.support1) <= 3
    assert len(witness.support2) <= 3
    assert witness.support3 == ()
    assert witness.union_size <= 9
    assert witness.grid_det != 0
    validate_witness(witness, elementary_basis(3))


def test_key_lemma_p2_small():
    witness = key_lemma_search(4, 2, seed=0)
    assert witness.h_required == h_value(4, 2) == -16  # vacuous but still runs
    validate_witness(witness, elementary_basis(4))


def test_key_lemma_deterministic():
    a = key_lemma_search(3, 1, seed=11)
    b = key_lemma_search(3, 1, seed=11)
    assert a == b


def test_key_lemma_rejects_bad_inputs():
    with pytest.raises(NotImplementedError):
        key_lemma_search(4, 3, seed=0)
    with pytest.raises(KeyLemmaStageError, match="stage P0"):
        key_lemma_search(2, 1, basis=[ExactMatrix.identity(2)] * 4, seed=0)


def test_basis_span_check_is_modular_first(monkeypatch):
    # rank_mod == n^2 proves that the basis spans; the exact elimination of
    # the n^2 x n^2 stack runs only when the modular rank comes out short
    sides = []
    real = keylemma.rank_exact
    monkeypatch.setattr(keylemma, "rank_exact", lambda m: sides.append(m.rows) or real(m))
    key_lemma_search(3, 1, seed=0)
    assert 9 not in sides
    basis = elementary_basis(3)
    basis[-1] = basis[-1] * RANK_PRIME  # spans over Q, not mod the prime
    witness = key_lemma_search(3, 1, basis=basis, seed=0)
    assert 9 in sides
    validate_witness(witness, basis)


def test_alpha_independence_check_is_modular_first(monkeypatch):
    # rank_mod == 2p + 1 proves the alphas independent; the exact elimination
    # of their stack runs only when the modular rank comes out short
    sides = []
    real = keylemma.rank_exact
    monkeypatch.setattr(keylemma, "rank_exact", lambda m: sides.append(m.rows) or real(m))
    witness = key_lemma_search(3, 1, seed=0)
    validate_witness(witness, elementary_basis(3))
    assert sides == []
    # alpha^1 + prime * E_00 is alpha^1 mod the prime, yet independent over Q
    alphas = witness.alphas[:2] + (witness.alphas[1] + elementary_basis(3)[0] * RANK_PRIME,)
    stacked = [[a[i, j] for i in range(3) for j in range(3)] for a in alphas]
    assert gauss_rank(stacked) == 3 and keylemma.rank_mod(ExactMatrix(stacked)) == 2
    tampered = dataclasses.replace(witness, alphas=alphas)
    with pytest.raises(ValueError) as info:
        validate_witness(tampered, elementary_basis(3))
    assert sides == [3]
    assert "linearly dependent" not in str(info.value)  # a later check rejects it


def test_key_lemma_failure_names_every_attempt(monkeypatch):
    # every residue reads zero, so stage P0 rejects every sample of every attempt
    monkeypatch.setattr(keylemma, "det_mod_rows", lambda rows: 0)
    with pytest.raises(KeyLemmaStageError) as info:
        key_lemma_search(3, 1, seed=0)
    message = str(info.value)
    assert message.startswith("all 5 attempts failed: ")
    entries = message.split(": ", 1)[1].split("; ")
    assert len(entries) == 5
    for attempt, entry in enumerate(entries):
        assert entry.startswith(f"attempt {attempt}: stage P0: ")


def test_basis_with_a_denominator_divisible_by_the_prime_is_rejected_before_any_stage(
    monkeypatch,
):
    # such a basis has no residues mod the prime, so no stage can evaluate
    stages = []
    monkeypatch.setattr(keylemma, "support_restriction_search", lambda *a, **k: stages.append(a))
    basis = elementary_basis(3)
    basis[4] = basis[4] * Fraction(2, RANK_PRIME)
    with pytest.raises(KeyLemmaStageError, match="stage P0: .*denominator"):
        key_lemma_search(3, 1, basis=basis, seed=0)
    assert stages == []


def test_rational_basis_with_denominators_prime_to_the_prime_validates():
    basis = elementary_basis(3)
    basis[0] = basis[0] * Fraction(1, 3)
    basis[4] = basis[4] + basis[5] * Fraction(2, 5)
    witness = key_lemma_search(3, 1, basis=basis, seed=0)
    validate_witness(witness, basis)


def run_capturing_stages(monkeypatch, n, p, basis, seed):
    """Run key_lemma_search; return each stage's evaluator and shrunken point."""
    polys, points = [], []
    search, shrink = keylemma.support_restriction_search, keylemma.shrink_witness

    def spy_search(poly, *args, **kwargs):
        polys.append(poly)
        return search(poly, *args, **kwargs)

    def spy_shrink(poly, witness, *args, **kwargs):
        found = shrink(poly, witness, *args, **kwargs)
        points.append(found.point)
        return found

    monkeypatch.setattr(keylemma, "support_restriction_search", spy_search)
    monkeypatch.setattr(keylemma, "shrink_witness", spy_shrink)
    key_lemma_search(n, p, basis=basis, seed=seed)
    assert len(polys) == len(points) == (3 if p == 1 else 4)  # attempt 0 succeeded
    return polys, points


def exact_stage_evaluators(n, p, basis, points, seed):
    """det_mod of each stage's ExactMatrix expression, with attempt 0's fixed slices."""
    arity = n * n

    def build(x):
        return _matrix_from_coords(x, basis, n)

    alpha0 = build(points[0])
    adj0 = invert(alpha0) * det_exact(alpha0)

    def normalized(x):
        return adj0 * build(x)

    if p == 1:
        rng = random.Random(child_seed(seed, 0, 0xA0))
        aux = ExactMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        fixed = {2: build(points[1])}
    else:
        fixed = {m: build(points[1][(m - 2) * arity : (m - 1) * arity]) for m in range(2, 2 * p)}
    fixed[1] = build(points[2])

    def stage1(x):
        if p == 1:
            return det_mod(commutator(aux, normalized(x)))
        value = 1
        for a, b in keylemma._middle_pairs(p):
            left = normalized(x[(a - 2) * arity : (a - 1) * arity])
            right = normalized(x[(b - 2) * arity : (b - 1) * arity])
            value = value * det_mod(commutator(left, right)) % RANK_PRIME
        return value

    def stage3(x):
        slices = [ExactMatrix.identity(n)] + [adj0 * fixed[i] for i in range(1, 2 * p)]
        family = SliceFamily(p, n, n, tuple(slices + [normalized(x)]))
        return det_mod(assemble(commutator_pattern(p), family))

    return [
        lambda x: det_mod(build(x)),
        stage1,
        lambda x: det_mod(commutator(normalized(x), adj0 * fixed[2])),
        stage3,
    ]


def random_integer_basis(n, rng):
    while True:
        basis = [
            ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            for _ in range(n * n)
        ]
        stacked = ExactMatrix([[x for row in b for x in row] for b in basis])
        if det_exact(stacked) != 0:
            return basis


@pytest.mark.parametrize("n, p, random_basis", [(3, 1, False), (4, 1, True), (4, 2, False), (4, 2, True)])
def test_stage_evaluators_equal_det_mod_of_the_exact_expressions(monkeypatch, n, p, random_basis):
    rng = random.Random(97 + n + p)
    basis = random_integer_basis(n, rng) if random_basis else elementary_basis(n)
    polys, points = run_capturing_stages(monkeypatch, n, p, basis, seed=3)
    expected = exact_stage_evaluators(n, p, basis, points, seed=3)
    for stage, poly in enumerate(polys):
        samples = [[0] * poly.arity, list(points[stage])]
        for _ in range(6):
            span = rng.choice((9, 2**40))
            samples.append([rng.choice((0, rng.randint(-span, span))) for _ in range(poly.arity)])
        for x in samples:
            assert poly.evaluate(x) == expected[stage](x), f"stage {stage} at {x}"


def test_stage3_recomputes_only_the_commutators_with_the_last_slice(monkeypatch):
    polys, points = run_capturing_stages(monkeypatch, 4, 2, elementary_basis(4), seed=0)
    x = list(points[3])
    value = polys[3].evaluate(x)
    calls = []
    real = keylemma._commutator_mod
    monkeypatch.setattr(keylemma, "_commutator_mod", lambda a, b: calls.append(1) or real(a, b))
    assert polys[3].evaluate(x) == value != 0
    assert len(calls) == 2 * 2 - 1  # [X_i, X_4] for i = 1, 2, 3 out of 6 pairs


def test_validate_witness_catches_tampering():
    witness = key_lemma_search(3, 1, seed=0)

    def tamper(**changes):
        fields = {f: getattr(witness, f) for f in witness.__dataclass_fields__}
        fields.update(changes)
        return witness.__class__(**fields)

    with pytest.raises(ValueError, match="determinant"):
        validate_witness(tamper(grid_det=witness.grid_det + 1), elementary_basis(3))
    with pytest.raises(ValueError, match="h_achieved"):
        validate_witness(tamper(h_achieved=witness.h_achieved + 1), elementary_basis(3))
    dense = ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    with pytest.raises(ValueError):
        validate_witness(
            tamper(alphas=(witness.alphas[0], dense, witness.alphas[2])),
            elementary_basis(3),
        )


def test_refined_p2_degree_bound():
    assert refined_p2_degree(2, seed=0) <= 8  # identically-zero case measures 0
    assert refined_p2_degree(3, seed=0) == 12  # the 4n claim with content


def test_reduced_diagonal_degree():
    assert reduced_diagonal_degree(2, 3, seed=0) == (12, 12)
    assert reduced_diagonal_degree(2, 2, seed=0) == (4, 4)
