"""Bound formulas, crossover scans, and border-rank certificates."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koszul_rank import bounds, exact_linalg, flattening
from koszul_rank.bounds import (
    BoundKind,
    Certificate,
    DegenerateSubspaceError,
    best_mr,
    bound_value,
    certify_border_rank,
    crossover,
    mr_coefficient,
)
from koszul_rank.cli import main
from koszul_rank.exact_linalg import RANK_PRIME, rank_mod
from koszul_rank.flattening import assemble, flattening_pattern
from koszul_rank.keylemma import h_value
from koszul_rank.tensor_core import (
    Tensor3,
    identity_factor,
    matmul_tensor,
    slice_family,
    tensor_from_json,
)
from oracles import gauss_rank, koszul_matrix


def kind(text):
    return BoundKind.parse(text)


def test_formula_examples():
    assert bound_value(kind("mr:3"), 100).value == 24900
    assert bound_value(kind("blaser"), 100).value == 24700
    assert bound_value(kind("mr:3"), 100, 50).value == 16150
    assert bound_value(kind("landsberg:3"), 100).value == 15400
    assert bound_value(kind("strassen"), 10).value == 150
    assert bound_value(kind("mr_p2_refined"), 24).value == bound_value(kind("blaser"), 24).value


def test_mr_coefficient_is_the_abstracts_coefficient():
    assert [mr_coefficient(p) for p in (1, 2, 3)] == [3, 8, 26]
    for p in (1, 2, 3, 4):
        for n in (1, 7, 40):
            assert h_value(n, p) == n * n - mr_coefficient(p) * n
            assert bound_value(kind(f"mr:{p}"), n).value == (3 - Fraction(1, p + 1)) * n * n - mr_coefficient(p) * n


def test_kind_parsing_and_validation():
    assert str(kind("mr:3")) == "mr:3"
    with pytest.raises(ValueError):
        kind("unknown")
    with pytest.raises(ValueError):
        kind("mr")  # parametric kinds need p
    with pytest.raises(ValueError):
        BoundKind("blaser", 2)


def test_square_only_kinds_reject_rectangular():
    with pytest.raises(ValueError):
        bound_value(kind("blaser"), 4, 5)
    assert bound_value(kind("mr:2"), 4, 5).m == 5


def test_mr_p1_equals_blaser_up_to_1000():
    blaser = kind("blaser")
    mr1 = kind("mr:1")
    for n in range(1, 1001):
        assert bound_value(mr1, n).value == bound_value(blaser, n).value


def test_refined_p2_gains_n_over_plain():
    for n in (1, 7, 24, 100, 555):
        delta = bound_value(kind("mr_p2_refined"), n).value - bound_value(kind("mr:2"), n).value
        assert delta == n


def test_ceiling_and_vacuous():
    report = bound_value(kind("mr:1"), 1)
    assert report.value == Fraction(-1, 2)
    assert report.ceiling == 0
    assert report.vacuous
    report = bound_value(kind("mr:2"), 3)
    assert report.value == 0 and report.ceiling == 0 and not report.vacuous
    report = bound_value(kind("mr:2"), 6)
    assert report.value == 48 and report.ceiling == 48 and not report.vacuous


def test_crossovers():
    c = crossover(kind("mr_p2_refined"), kind("blaser"), 200)
    assert (c.first_geq, c.first_strict) == (24, 25)
    assert c.monotone_after
    c = crossover(kind("mr_p3_refined"), kind("mr_p2_refined"), 300)
    assert (c.first_geq, c.first_strict) == (120, 121)
    c = crossover(kind("mr:3"), kind("blaser"), 200)
    assert (c.first_geq, c.first_strict) == (92, 93)
    assert abs(c.first_strict_ceiling - c.first_strict) <= 1
    c = crossover(kind("blaser"), kind("blaser"), 50)
    assert c.first_geq == 1 and c.first_strict is None and c.monotone_after


def test_crossover_absent_within_range():
    c = crossover(kind("mr:3"), kind("blaser"), 50)
    assert c.first_geq is None and c.monotone_after is None


@pytest.mark.parametrize("a, b", [("mr:3", "blaser"), ("landsberg:2", "mr_p2_refined"), ("strassen", "mr:1")])
def test_crossover_is_the_scan_of_bound_value_with_binomials_taken_once(monkeypatch, a, b):
    n_max = 120
    values = [(bound_value(kind(a), n), bound_value(kind(b), n)) for n in range(1, n_max + 1)]
    first = lambda test: next((n for n, (va, vb) in enumerate(values, 1) if test(va, vb)), None)
    calls = []
    real_comb = math.comb
    monkeypatch.setattr(bounds.math, "comb", lambda *args: calls.append(args) or real_comb(*args))
    c = crossover(kind(a), kind(b), n_max)
    assert c.first_geq == first(lambda va, vb: va.value >= vb.value)
    assert c.first_strict == first(lambda va, vb: va.value > vb.value)
    assert c.first_geq_ceiling == first(lambda va, vb: va.ceiling >= vb.ceiling)
    assert c.first_strict_ceiling == first(lambda va, vb: va.ceiling > vb.ceiling)
    assert len(calls) <= 4  # two binomials per mr kind, one per landsberg kind, not per n


def test_best_mr_matches_exhaustive_scan():
    for n in (1, 5, 10, 50, 200):
        p_star, report = best_mr(n)
        exhaustive = max(
            ((bound_value(kind(f"mr:{p}"), n).ceiling, -p) for p in range(1, n + 1)),
        )
        assert report.ceiling == exhaustive[0]
        assert p_star == -exhaustive[1]
    assert best_mr(10)[0] == 1
    assert best_mr(200)[0] == 2


# -- certificates -------------------------------------------------------------

# Frozen expected certificate values, precomputed with the independent
# row-reduction oracle (plain rational Gaussian elimination on the directly
# constructed skew-symmetrized map): rank 12 of 12 -> 6, rank 27 of 27 -> 14.
EXPECTED_BOUND = {(2, 2, 2): 6, (3, 3, 3): 14}


def test_certificates_match_oracle_and_frozen_values():
    for (n, l, m), expected in EXPECTED_BOUND.items():
        tensor = matmul_tensor(n, l, m)
        certificate = certify_border_rank(tensor, 1, seed=0)
        assert certificate.bound == expected
        oracle = gauss_rank(koszul_matrix(tensor, [list(a) for a in certificate.alphas]))
        assert oracle == certificate.flattening_rank
        assert -(-oracle // certificate.divisor) == expected


def test_certificate_zero_tensor():
    zero = Tensor3((4, 4, 4), {})
    assert certify_border_rank(zero, 1, seed=0).bound == 0


def test_certificate_monotone_in_trials_and_nnz_bound():
    tensor = matmul_tensor(3, 3, 3)
    b1 = certify_border_rank(tensor, 1, seed=5, trials=1).bound
    b3 = certify_border_rank(tensor, 1, seed=5, trials=3).bound
    assert b3 >= b1
    assert b3 <= tensor.nnz()


def test_certificate_full_rank_value():
    for n, m in [(2, 2), (3, 3), (2, 3)]:
        tensor = matmul_tensor(n, n, m)
        certificate = certify_border_rank(tensor, 1, seed=0)
        full = math.comb(3, 1) * n * m
        if certificate.flattening_rank == full:
            expected = math.ceil(Fraction(n * m * 3, 2))
            assert certificate.bound == expected


def test_certificate_deterministic_per_seed():
    tensor = matmul_tensor(2, 2, 2)
    a = certify_border_rank(tensor, 1, seed=9)
    b = certify_border_rank(tensor, 1, seed=9)
    assert a == b
    c = certify_border_rank(tensor, 1, seed=10)
    assert isinstance(c, Certificate)  # different seed may differ; both valid


def test_certificate_rational_tensor_matches_oracle():
    # "p/q" entries make the row scaling of the flattening nontrivial; a sum
    # of three rank-one terms keeps its rank (at most 3 * binom(2,1) = 6)
    # below its side 12, so an over-reported rank would show
    rng = random.Random(17)
    dims = (3, 4, 4)
    total = {}
    for _ in range(3):
        a, b, c = (
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)] for d in dims
        )
        for i, j, k in itertools.product(*(range(d) for d in dims)):
            total[(i, j, k)] = total.get((i, j, k), 0) + a[i] * b[j] * c[k]
    entries = [[i, j, k, f"{v.numerator}/{v.denominator}"] for (i, j, k), v in total.items()]
    tensor = tensor_from_json({"dims": list(dims), "entries": entries})
    assert any(v.denominator > 1 for v in tensor.entries.values())
    certificate = certify_border_rank(tensor, 1, seed=4)
    assert certificate.prime == RANK_PRIME
    oracle = gauss_rank(koszul_matrix(tensor, [list(a) for a in certificate.alphas]))
    assert certificate.flattening_rank == oracle == 6
    assert certificate.bound == 3


def dense_rank(tensor, p, alphas):
    """rank_mod of the full flattening, without splitting off Id_m."""
    sym = flattening_pattern(p)
    return rank_mod(assemble(sym, slice_family(tensor, alphas)))


def random_draws(rng, dim_a, p, count=3):
    return [[[rng.randint(-9, 9) for _ in range(dim_a)] for _ in range(2 * p + 1)]
            for _ in range(count)]


@pytest.mark.parametrize(
    "shape, p",
    [((2, 2, 2), 1), ((3, 3, 3), 1), ((3, 3, 3), 2), ((3, 3, 3), 3), ((3, 3, 5), 2),
     ((4, 4, 4), 2)],
)
def test_reduced_flattening_rank_equals_dense_rank(shape, p):
    tensor = matmul_tensor(*shape)
    assert identity_factor(tensor)[1] == shape[2]  # the reduced path is taken
    rng = random.Random(100 * p + sum(shape))
    for draw in random_draws(rng, tensor.dim_a, p):
        certificate = certify_border_rank(tensor, p, alphas=draw)
        assert certificate.flattening_rank == dense_rank(tensor, p, draw)
        if p == 1 and shape[0] <= 3:
            assert certificate.flattening_rank == gauss_rank(koszul_matrix(tensor, draw))


MATMUL_CASES = [((2, 2, 2), 1), ((3, 3, 3), 1), ((3, 3, 3), 2), ((3, 3, 3), 3), ((3, 3, 5), 2),
                ((4, 4, 4), 2)]


@st.composite
def matmul_draws(draw):
    """A matmul case and 2p+1 integer covectors for it."""
    shape, p = draw(st.sampled_from(MATMUL_CASES))
    dim_a = shape[0] * shape[1]
    row = st.lists(st.integers(-9, 9), min_size=dim_a, max_size=dim_a)
    return shape, p, draw(st.lists(row, min_size=2 * p + 1, max_size=2 * p + 1))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(matmul_draws())
def test_certify_rank_equals_dense_rank_property(case):
    # the certify rank goes through the identity factor and the Schur
    # complement; the dense rank through neither
    shape, p, draw = case
    tensor = matmul_tensor(*shape)
    try:
        certificate = certify_border_rank(tensor, p, alphas=draw)
    except DegenerateSubspaceError:
        assume(False)  # dependent covectors
    assert certificate.flattening_rank == dense_rank(tensor, p, draw)
    if p == 1:
        assert certificate.flattening_rank == gauss_rank(koszul_matrix(tensor, draw))


def test_certify_ranks_only_the_commutator_grid(monkeypatch):
    # a slide back to the dense flattening (105 x 105 for M_3 at p = 3 after
    # splitting off Id_3, 315 x 315 without) fails here
    shapes = []
    real, real_rows = exact_linalg.rank_mod, exact_linalg.rank_mod_rows

    def spy(m, prime=RANK_PRIME):
        shapes.append(m.shape)
        return real(m, prime)

    def spy_rows(rows, ncols, prime=RANK_PRIME):
        shapes.append((len(rows), ncols))
        return real_rows(rows, ncols, prime)

    for module in (exact_linalg, flattening):
        monkeypatch.setattr(module, "rank_mod", spy)
        monkeypatch.setattr(module, "rank_mod_rows", spy_rows)
    assert main(["certify", "--matmul", "3,3,3", "--p", "3"]) == 0
    # 7 x 9 is the stack of the 7 covectors, ranked by the independence check
    assert (45, 45) in shapes and set(shapes) <= {(45, 45), (7, 9)}


def test_certify_falls_back_when_x0_is_singular_over_q():
    # alpha^0 a unit covector: X_0 = E_00 for M_3, singular over Q
    tensor = matmul_tensor(3, 3, 3)
    rng = random.Random(31)
    for p in (1, 2):
        draw = [[int(i == 0) for i in range(9)]] + random_draws(rng, 9, p, count=1)[0][1:]
        certificate = certify_border_rank(tensor, p, alphas=draw)
        assert certificate.flattening_rank == dense_rank(tensor, p, draw)
        if p == 1:
            assert certificate.flattening_rank == gauss_rank(koszul_matrix(tensor, draw))


def test_certify_falls_back_when_x0_is_singular_mod_the_prime():
    # the first slice has det exactly 2^61 - 1: invertible over Q only
    rng = random.Random(37)
    entries = {(0, 0, 0): 1, (0, 1, 1): RANK_PRIME, (0, 2, 2): 1}
    for i, j, k in itertools.product((1, 2), range(3), range(3)):
        entries[(i, j, k)] = rng.randint(-4, 4)
    tensor = Tensor3((3, 3, 3), {key: v for key, v in entries.items() if v})
    units = [[int(i == a) for i in range(3)] for a in range(3)]
    certificate = certify_border_rank(tensor, 1, alphas=units)
    assert certificate.flattening_rank == dense_rank(tensor, 1, units)
    assert certificate.flattening_rank <= gauss_rank(koszul_matrix(tensor, units))


def test_certify_falls_back_when_the_prime_divides_a_denominator():
    rng = random.Random(41)
    entries = [[i, j, k, f"{rng.randint(1, 5)}/{rng.choice([1, 2, RANK_PRIME])}"]
               for i, j, k in itertools.product(range(3), range(3), range(3))]
    tensor = tensor_from_json({"dims": [3, 3, 3], "entries": entries})
    assert any(v.denominator == RANK_PRIME for v in tensor.entries.values())
    for draw in random_draws(rng, 3, 1):
        certificate = certify_border_rank(tensor, 1, alphas=draw)
        assert certificate.flattening_rank == dense_rank(tensor, 1, draw)
        assert certificate.flattening_rank <= gauss_rank(koszul_matrix(tensor, draw))


def test_near_miss_tensors_certify_like_the_dense_path():
    # one perturbed or missing entry must not be certified as M_3 (x) Id_3
    tensor = matmul_tensor(3, 3, 3)
    perturbed = dict(tensor.entries)
    perturbed[(0, 0, 0)] = 2
    missing = dict(tensor.entries)
    del missing[(0, 0, 0)]
    rng = random.Random(23)
    for entries in (perturbed, missing):
        near = Tensor3(tensor.dims, entries)
        assert identity_factor(near)[1] == 1
        for draw in random_draws(rng, near.dim_a, 1):
            rank = certify_border_rank(near, 1, alphas=draw).flattening_rank
            assert rank == dense_rank(near, 1, draw) == gauss_rank(koszul_matrix(near, draw))


def test_rational_tensor_times_identity_certifies_like_the_dense_path():
    # "p/q" entries make _integer_grid scale rows; the copies must scale alike
    rng = random.Random(29)
    base = {
        (i, j, k): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for i, j, k in itertools.product(range(3), range(2), range(2))
    }
    entries = [
        [i, j * 2 + s, k * 2 + s, f"{v.numerator}/{v.denominator}"]
        for (i, j, k), v in base.items() if v for s in range(2)
    ]
    tensor = tensor_from_json({"dims": [3, 4, 4], "entries": entries})
    assert identity_factor(tensor)[1] == 2
    for draw in random_draws(rng, 3, 1):
        certificate = certify_border_rank(tensor, 1, alphas=draw)
        assert certificate.flattening_rank == dense_rank(tensor, 1, draw)
        assert certificate.flattening_rank == gauss_rank(koszul_matrix(tensor, draw))
    seeded = certify_border_rank(tensor, 1, seed=3)
    assert seeded.flattening_rank == dense_rank(tensor, 1, [list(a) for a in seeded.alphas])


def test_certificate_explicit_alphas():
    tensor = matmul_tensor(2, 2, 2)
    alphas = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
    certificate = certify_border_rank(tensor, 1, alphas=alphas)
    assert certificate.trials == 1
    assert certificate.bound >= 4
    with pytest.raises(DegenerateSubspaceError, match="dependent"):
        certify_border_rank(tensor, 1, alphas=[[1, 0, 0, 1]] * 3)


@pytest.mark.parametrize("count, length", [(5, 9), (7, 9), (3, 8)])
def test_certify_rejects_covectors_of_the_wrong_shape(monkeypatch, count, length):
    # 5 or 7 independent covectors at p = 1 would rank the p = 2 or p = 3
    # flattening of M_3 and divide by C(2, 1): bounds 45 and 135, above
    # Laderman's rank 23; a short covector is no covector of dimA = 9 either
    monkeypatch.setattr(bounds, "flattening_rank_mod", lambda *args: pytest.fail("ranked"))
    rng = random.Random(51)
    draw = [[rng.randint(-9, 9) for _ in range(length)] for _ in range(count)]
    with pytest.raises(ValueError, match="need 3 covectors of length dimA = 9"):
        certify_border_rank(matmul_tensor(3, 3, 3), 1, alphas=draw)


def test_certify_draws_each_trial_when_it_ranks_it(monkeypatch):
    # draw k comes from random.Random(_child_seed(seed, k)) and is made only
    # after draw k - 1 was ranked, so memory does not grow with trials
    events = []
    real_draw, real_rank = bounds._draw, bounds.flattening_rank_mod
    monkeypatch.setattr(bounds, "_draw", lambda *args: events.append("draw") or real_draw(*args))
    monkeypatch.setattr(
        bounds, "flattening_rank_mod", lambda *args: events.append("rank") or real_rank(*args)
    )
    certificate = certify_border_rank(matmul_tensor(2, 2, 2), 1, seed=4, trials=5)
    assert events == ["draw", "rank"] * 5
    assert certificate.trials == len(certificate.trial_ranks) == 5
    best = certificate.trial_ranks.index(certificate.flattening_rank)
    rng = random.Random(bounds._child_seed(4, best))
    assert certificate.alphas == tuple(
        tuple(Fraction(rng.randint(-9, 9)) for _ in range(4)) for _ in range(3)
    )


def test_certificate_needs_a_trial():
    with pytest.raises(ValueError, match="trials"):
        certify_border_rank(matmul_tensor(2, 2, 2), 1, trials=0)


def test_certificate_p_too_large():
    with pytest.raises(DegenerateSubspaceError, match="p too large"):
        certify_border_rank(matmul_tensor(2, 2, 2), 3, seed=0)


def test_certificate_rejects_rectangular_slices():
    with pytest.raises(DegenerateSubspaceError, match="square"):
        certify_border_rank(matmul_tensor(2, 3, 2), 1, seed=0)
