"""Support search, counting, nonvanishing sampling, degree audits, pipeline."""

import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koszul_rank.exact_linalg import (
    RANK_PRIME,
    ExactMatrix,
    child_seed,
    commutator,
    commutator_mod,
    det_exact,
    det_mod,
    det_mod_rows,
    invert,
    mul_mod,
    random_int_matrix,
    reduce_mod,
)
from koszul_rank.flattening import assemble, assemble_mod, commutator_matrix, commutator_pattern
from koszul_rank.keylemma import (
    KeyLemmaStageError,
    PolynomialEvaluator,
    SupportWitness,
    degree_along_line,
    elementary_basis,
    generic_nonvanishing,
    h_value,
    key_lemma_search,
    reduced_diagonal_degree,
    refined_p2_degree,
    shrink_witness,
    support_restriction_search,
    validate_witness,
)
from koszul_rank import exact_linalg, keylemma
from koszul_rank.keylemma import _matrix_from_coords
from koszul_rank.tensor_core import SliceFamily
from oracles import gauss_rank


# spans of the search (2^20 * degree) and of shrink_witness (99 * 2^k), and
# widths 2 span + 1 = 2^k - 1 and 2^k + 1 on either side of a power of two
# (the width is odd, so 2^k itself never occurs): there the redraw rate of
# getrandbits jumps from almost 0 to almost 1/2
DRAW_SPANS = (
    [1]
    + [99 * 2**k for k in range(24)]
    + [2**20 * d for d in range(1, 301)]
    + [2 ** (k - 1) - 1 + e for k in range(1, 70) for e in (0, 1)]
)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_random_point_draws_the_randint_stream(seed):
    ours, reference = random.Random(seed), random.Random(seed)
    support = (0, 2, 3, 6)
    for span in DRAW_SPANS:
        expected = [0] * 7
        for i in support:
            expected[i] = reference.randint(-span, span)
        assert keylemma._random_point(ours, 7, support, span) == expected, span
    assert ours.getstate() == reference.getstate()


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


def test_support_search_escalates_twice_before_reporting_an_oversized_support():
    # x0 x1 x2 vanishes off the full support, so no round shrinks it; the
    # degree bound 1 is a lie, and the search tries each 2-support at
    # budgets 4, 32 and 256 before it gives up
    calls = []
    poly = PolynomialEvaluator(3, 1, lambda x: calls.append(x) or x[0] * x[1] * x[2])
    with pytest.raises(KeyLemmaStageError, match="support 3 exceeds degree bound 1"):
        support_restriction_search(poly, seed=1)
    assert len(calls) == 1 + 3 * (4 + 32 + 256)


def test_shrink_witness_keeps_its_input_when_no_small_point_is_nonzero():
    # shrink_witness draws at spans 99 * 2^k, k < 24, all below 10^9
    poly = PolynomialEvaluator(2, 1, lambda x: int(abs(x[0]) > 10**9))
    witness = SupportWitness((0,), (2 * 10**9, 0), 1)
    assert shrink_witness(poly, witness, seed=3) is witness


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


def test_key_lemma_rejects_more_alphas_than_matrix_dimensions(monkeypatch):
    # 2p + 1 = 5 alphas cannot be independent in the 4-dimensional space of
    # 2 x 2 matrices; the check runs before the basis is built
    monkeypatch.setattr(keylemma, "elementary_basis", lambda n: pytest.fail("basis built"))
    with pytest.raises(ValueError, match="p too large for n"):
        key_lemma_search(2, 2, seed=0)


@pytest.mark.parametrize("p", sorted(keylemma._STAGES))
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stage_lists_fix_every_slot_once_within_the_budgets(n, p):
    # a refined p = 2 list or a p = 3 list must pass this too
    stages = keylemma._STAGES[p]
    budgets = keylemma._stage_budgets(n, p)
    slots = [0] + [slot for stage in stages for slot in stage.slots]
    assert sorted(slots) == list(range(2 * p + 1))
    for index, stage in enumerate(stages, start=1):
        assert stage.degree(n) <= budgets[index], f"stage {index}"
    assert len(stages) == sum(1 for budget in budgets[1:] if budget)
    assert all(budgets[1 : len(stages) + 1])


def test_child_seed_tags_compose():
    # the pipeline derives stage seeds as child_seed(child_seed(seed, attempt), stage)
    for seed, a, b in [(0, 0, 1), (5, 3, 0xA0), (-7, 2**70, 4), (2**64 + 3, 1, 2)]:
        assert child_seed(child_seed(seed, a), b) == child_seed(seed, a, b)


def test_basis_span_check_is_modular_first(monkeypatch):
    # rank_mod == n^2 proves that the basis spans; the exact elimination of
    # the n^2 x n^2 stack runs only when the modular rank comes out short
    sides = []
    real = exact_linalg.rank_exact
    monkeypatch.setattr(exact_linalg, "rank_exact", lambda m: sides.append(m.rows) or real(m))
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
    real = exact_linalg.rank_exact
    monkeypatch.setattr(exact_linalg, "rank_exact", lambda m: sides.append(m.rows) or real(m))
    witness = key_lemma_search(3, 1, seed=0)
    validate_witness(witness, elementary_basis(3))
    assert sides == []
    # alpha^1 + prime * E_00 is alpha^1 mod the prime, yet independent over Q
    alphas = witness.alphas[:2] + (witness.alphas[1] + elementary_basis(3)[0] * RANK_PRIME,)
    stacked = [[a[i, j] for i in range(3) for j in range(3)] for a in alphas]
    assert gauss_rank(stacked) == 3 and exact_linalg.rank_mod(ExactMatrix(stacked)) == 2
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


def rational_basis():
    """Elementary basis of 3 x 3 matrices with denominators 3 and 5."""
    basis = elementary_basis(3)
    basis[0] = basis[0] * Fraction(1, 3)
    basis[4] = basis[4] + basis[5] * Fraction(2, 5)
    return basis


def test_rational_basis_with_denominators_prime_to_the_prime_validates():
    basis = rational_basis()
    witness = key_lemma_search(3, 1, basis=basis, seed=0)
    validate_witness(witness, basis)


def run_capturing_stages(monkeypatch, n, p, basis, seed):
    """Run key_lemma_search; return each stage's evaluator and shrunken point.

    Also returns attempt 0's adj(alpha^0) residue rows, the adj0 argument of
    its first stage build.
    """
    polys, points, adj0s = [], [], []
    search, shrink = keylemma.support_restriction_search, keylemma.shrink_witness

    def spy_search(poly, *args, **kwargs):
        polys.append(poly)
        return search(poly, *args, **kwargs)

    def spy_shrink(poly, witness, *args, **kwargs):
        found = shrink(poly, witness, *args, **kwargs)
        points.append(found.point)
        return found

    def spy_build(build):
        def wrapped(fixed, adj0, *args):
            adj0s.append(adj0)
            return build(fixed, adj0, *args)

        return wrapped

    stages = {
        q: tuple(dataclasses.replace(stage, build=spy_build(stage.build)) for stage in stage_list)
        for q, stage_list in keylemma._STAGES.items()
    }
    monkeypatch.setattr(keylemma, "support_restriction_search", spy_search)
    monkeypatch.setattr(keylemma, "shrink_witness", spy_shrink)
    monkeypatch.setattr(keylemma, "_STAGES", stages)
    key_lemma_search(n, p, basis=basis, seed=seed)
    assert len(polys) == len(points) == (3 if p == 1 else 4)  # attempt 0 succeeded
    return polys, points, adj0s[0]


def exact_stage_evaluators(n, p, basis, points, seed):
    """det_mod of each stage's ExactMatrix expression, with attempt 0's fixed
    slices, and the exact adjugate of alpha^0 as the Fraction reference."""
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

    evaluators = [
        lambda x: det_mod(build(x)),
        stage1,
        lambda x: det_mod(commutator(normalized(x), adj0 * fixed[2])),
        stage3,
    ]
    if p == 1:
        return evaluators, adj0, None
    # the p = 2 grid's corner C = diag([X_1, X_2], [X_1, X_2]) in the normalized slices
    x12 = commutator(adj0 * fixed[1], adj0 * fixed[2])
    zero = ExactMatrix.zeros(n, n)
    return evaluators, adj0, det_mod(ExactMatrix.from_blocks([[x12, zero], [zero, x12]]))


def random_integer_basis(n, rng):
    while True:
        basis = [
            ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            for _ in range(n * n)
        ]
        stacked = ExactMatrix([[x for row in b for x in row] for b in basis])
        if det_exact(stacked) != 0:
            return basis


# basis_kind: False elementary, True random integer, "rational" rational_basis()
@pytest.mark.parametrize(
    "n, p, basis_kind",
    [(3, 1, False), (4, 1, True), (4, 2, False), (4, 2, True), (3, 1, "rational")],
)
def test_stage_evaluators_equal_det_mod_of_the_exact_expressions(monkeypatch, n, p, basis_kind):
    rng = random.Random(97 + n + p)
    if basis_kind == "rational":
        basis = rational_basis()
    else:
        basis = random_integer_basis(n, rng) if basis_kind else elementary_basis(n)
    polys, points, adj0 = run_capturing_stages(monkeypatch, n, p, basis, seed=3)
    expected, exact_adj0, corner_det = exact_stage_evaluators(n, p, basis, points, seed=3)
    assert adj0 == reduce_mod(exact_adj0)
    for stage, poly in enumerate(polys):
        samples = [[0] * poly.arity, list(points[stage])]
        for _ in range(6):
            span = rng.choice((9, 2**40))
            samples.append([rng.choice((0, rng.randint(-span, span))) for _ in range(poly.arity)])
        for x in samples:
            value, reference = poly.evaluate(x), expected[stage](x)
            if basis_kind == "rational":
                # det_mod row-scales a rational matrix, so only zero against
                # nonzero carries over
                assert bool(value) == bool(reference), f"stage {stage} at {x}"
            elif stage == 3:
                # stage 3 is det(S) for the Schur complement S of the corner C,
                # and det(grid) = eps * det(C) * det(S) with eps = +1: moving
                # C's 2n columns behind the other 2n is (-1)^(2n * 2n)
                assert reference == corner_det * value % RANK_PRIME, f"stage 3 at {x}"
            else:
                assert value == reference, f"stage {stage} at {x}"


def test_stage3_takes_one_det_of_the_schur_complement(monkeypatch):
    n = 4
    polys, points, _ = run_capturing_stages(monkeypatch, n, 2, elementary_basis(n), seed=0)
    x = list(points[3])
    value = polys[3].evaluate(x)
    commutators, dets = [], []
    real_commutator, real_det = keylemma.commutator_mod, keylemma.det_mod_rows
    monkeypatch.setattr(
        keylemma, "commutator_mod", lambda *args: commutators.append(1) or real_commutator(*args)
    )
    monkeypatch.setattr(
        keylemma, "det_mod_rows", lambda rows, *args: dets.append(len(rows)) or real_det(rows, *args)
    )
    assert polys[3].evaluate(x) == value != 0
    assert commutators == []
    assert dets == [keylemma._stage_budgets(n, 2)[3]] == [2 * n]


@pytest.mark.parametrize("p, stages", [(2, (2,)), (1, (1, 2))])
def test_linear_stages_take_residue_rows_without_normalizing(monkeypatch, p, stages):
    # adj(alpha^0) is folded into the stage table: an evaluation applies it
    # to the residue rows of the sample and takes one det of its n rows
    n = 4
    polys, points, _ = run_capturing_stages(monkeypatch, n, p, elementary_basis(n), seed=0)
    values = {stage: polys[stage].evaluate(list(points[stage])) for stage in stages}
    products, dets = [], []
    real_mul, real_det = keylemma.mul_mod, keylemma.det_mod_rows
    monkeypatch.setattr(keylemma, "mul_mod", lambda *args: products.append(1) or real_mul(*args))
    monkeypatch.setattr(
        keylemma, "det_mod_rows", lambda rows, *args: dets.append(len(rows)) or real_det(rows, *args)
    )
    for stage in stages:
        products.clear()
        dets.clear()
        assert polys[stage].evaluate(list(points[stage])) == values[stage] != 0
        assert products == []
        assert dets == [n]


def split_grid(grid, side):
    """The blocks A, B, C, D of [[A, B], [C, D]], with A side x side."""
    rows = list(grid)
    top, bottom = rows[:side], rows[side:]
    left, right = slice(None, side), slice(side, None)
    return tuple(ExactMatrix([row[cols] for row in part]) for part in (top, bottom) for cols in (left, right))


@pytest.mark.parametrize("n", [3, 4])
def test_schur_complement_degree_is_the_stage3_budget(n):
    rng = random.Random(60 + n)
    while True:
        xs = [ExactMatrix.identity(n)] + [random_int_matrix(rng, n, n) for _ in range(3)]
        if det_exact(commutator(xs[1], xs[2])) != 0:
            break

    def det_schur(x):
        v = ExactMatrix([list(x[i * n : (i + 1) * n]) for i in range(n)])
        a, b, c, d = split_grid(commutator_matrix(SliceFamily(2, n, n, tuple(xs + [v]))), 2 * n)
        return det_exact(b - a * invert(c) * d)

    budget = keylemma._stage_budgets(n, 2)[3]
    poly = PolynomialEvaluator(n * n, budget, det_schur)
    assert degree_along_line(poly, seed=n) == budget == 2 * n


def residue_slices(n, count=4):
    entry = st.integers(0, 6)
    return st.lists(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=count,
        max_size=count,
    )


def check_schur_verdict(slices, p):
    """det(grid) = det([X_1, X_2])^C(2p-2, p-1) det(S) mod 7, with S from _schur_map."""
    n, last = len(slices[0]), 2 * p
    xs = dict(enumerate(slices, start=1))
    corner = det_mod_rows(commutator_mod(xs[1], xs[2], 7), 7) ** comb(2 * p - 2, p - 1) % 7
    assume(corner)
    schur = keylemma._schur_map({i: xs[i] for i in range(1, last)}, None, n, p, prime=7)
    value = det_mod_rows(schur(xs[last]), 7)
    commutators = {(i, j): commutator_mod(xs[i], xs[j], 7) for i in xs for j in xs if i < j}
    full = det_mod_rows(assemble_mod(commutator_pattern(p), commutators, n, 7), 7)
    assert bool(value) == bool(full)
    assert full == corner * value % 7


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(2, 4).flatmap(residue_slices))
def test_schur_verdict_is_the_full_grid_verdict_mod_7(slices):
    check_schur_verdict(slices, 2)


# at p = 2 every term of S contains X_4; at p = 3, 72 of its 174 terms lack
# X_6, so this runs the constants of the linear_map_mod table.  The p = 3
# grid is singular for n < 4, where both sides would read 0.
@settings(derandomize=True, deadline=None, max_examples=60)
@given(residue_slices(4, 6))
def test_schur_verdict_is_the_full_grid_verdict_mod_7_at_p3(slices):
    check_schur_verdict(slices, 3)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(2, 4).flatmap(lambda n: residue_slices(n, 5)))
def test_schur_map_with_adj0_folded_in_is_the_map_of_adj0_x_mod_7(slices):
    n = len(slices[0])
    fixed, adj0, x = dict(enumerate(slices[:3], start=1)), slices[3], slices[4]
    assume(det_mod_rows(commutator_mod(fixed[1], fixed[2], 7), 7))
    folded = keylemma._schur_map(fixed, adj0, n, 2, prime=7)
    plain = keylemma._schur_map(fixed, None, n, 2, prime=7)
    assert folded(x) == plain(mul_mod(adj0, x, 7))


def test_schur_map_names_stage3_when_the_corner_is_singular():
    x = [[1, 2], [3, 4]]
    with pytest.raises(KeyLemmaStageError, match=r"stage P3: \[X_1, X_2\] is singular"):
        keylemma._schur_map({1: x, 2: x, 3: x}, None, 2, 2)


def test_validate_witness_catches_tampering():
    # one tampered witness per check, in the order validate_witness runs them
    witness = key_lemma_search(3, 1, seed=0)
    basis = elementary_basis(3)
    assert witness.union_size < 9  # an alpha can stray off the supports
    alpha0, alpha1, alpha2 = witness.alphas
    commuting = alpha1 * invert(alpha0) * alpha1  # X_2 = X_1^2 commutes with X_1
    stray = (alpha0, ExactMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]]), alpha2)
    cases = [
        ("support 0 has 4 > budget 3", {"support0": (0, 1, 2, 3)}),
        ("union size mismatch", {"union_size": witness.union_size + 1}),
        ("h_achieved mismatch", {"h_achieved": witness.h_achieved + 1}),
        ("h_required is not h(n, p)", {"h_required": witness.h_required + 1}),
        ("wrong number of alphas", {"alphas": witness.alphas[:2]}),
        ("alphas are linearly dependent", {"alphas": (alpha0, alpha1, alpha1 * 2)}),
        ("alpha^0 is singular", {"alphas": (basis[0], alpha1, alpha2)}),
        ("commutator grid determinant vanishes", {"alphas": (alpha0, alpha1, commuting)}),
        ("stored grid determinant does not replay", {"grid_det": witness.grid_det + 1}),
        (
            "alpha^1 uses basis vectors outside the supports",
            {"alphas": stray, "grid_det": keylemma._grid_det(stray, 3, 1)},
        ),
    ]
    validate_witness(witness, basis)
    for message, changes in cases:
        with pytest.raises(ValueError) as info:
            validate_witness(dataclasses.replace(witness, **changes), basis)
        assert str(info.value) == message


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_stage_budgets_sum_to_n_squared_minus_h(p):
    # so the union of budget-sized supports leaves at least h(n, p) vectors,
    # and the "below the guaranteed count" check of validate_witness is implied
    for n in (1, 2, 3, 5, 9, 31):
        assert sum(keylemma._stage_budgets(n, p)) == n * n - h_value(n, p)


@pytest.mark.parametrize("n, p", [(3, 1), (4, 2)])
def test_grid_determinant_is_taken_once_per_search_and_per_replay(monkeypatch, n, p):
    grids, normalized, grid_dets = [], [], []
    real_normalize, real_grid, real_det = (
        keylemma.normalize_pivot, keylemma.commutator_matrix, keylemma.det_exact
    )

    def spy_grid(family):
        numeric = real_grid(family)
        grids.append(numeric)
        return numeric

    def spy_det(m):
        if any(m is grid for grid in grids):
            grid_dets.append(m)
        return real_det(m)

    monkeypatch.setattr(keylemma, "normalize_pivot", lambda f: normalized.append(f) or real_normalize(f))
    monkeypatch.setattr(keylemma, "commutator_matrix", spy_grid)
    monkeypatch.setattr(keylemma, "det_exact", spy_det)
    witness = key_lemma_search(n, p, seed=0)
    assert (len(normalized), len(grids), len(grid_dets)) == (1, 1, 1)
    validate_witness(witness, elementary_basis(n))
    assert (len(normalized), len(grids), len(grid_dets)) == (2, 2, 2)


def test_a_vanishing_grid_determinant_fails_each_attempt_at_the_final_stage(monkeypatch):
    monkeypatch.setattr(
        keylemma, "commutator_matrix", lambda family: ExactMatrix.zeros(family.b, family.b)
    )
    with pytest.raises(KeyLemmaStageError) as info:
        key_lemma_search(3, 1, seed=0)
    message = str(info.value)
    assert message.startswith("all 5 attempts failed: ")
    assert message.split(": ", 1)[1].split("; ") == [
        f"attempt {attempt}: final: commutator grid determinant vanishes" for attempt in range(5)
    ]


def test_refined_p2_degree_bound():
    assert refined_p2_degree(2, seed=0) <= 8  # identically-zero case measures 0
    assert refined_p2_degree(3, seed=0) == 12  # the 4n claim with content


def test_refined_p2_degree_rejects_n_below_2():
    # 1 x 1 matrices commute, so no draw of v1, v2 could ever be accepted
    with pytest.raises(ValueError, match="n must be >= 2"):
        refined_p2_degree(1)


def test_reduced_diagonal_degree():
    assert reduced_diagonal_degree(2, 3, seed=0) == (12, 12)
    assert reduced_diagonal_degree(2, 2, seed=0) == (4, 4)


def test_reduced_diagonal_degree_at_p1_is_a_constant():
    # p = 1 has no middle slices: an evaluator of arity 0
    assert reduced_diagonal_degree(3, 1, seed=0) == (0, 0)
    constant = PolynomialEvaluator(0, 1, lambda x: Fraction(5))
    assert degree_along_line(constant, seed=2) == 0


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: h_value(5, 0), ValueError, "p must be >= 1", id="h-p"),
        pytest.param(lambda: key_lemma_search(1, 1), ValueError, "n must be >= 2", id="search-n"),
        pytest.param(
            lambda: key_lemma_search(2, 1, basis=elementary_basis(2)[:3]),
            KeyLemmaStageError,
            r"stage P0: basis must have n\^2 elements",
            id="search-basis",
        ),
    ],
)
def test_input_checks_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
