"""Flattening construction, block partition, commutator grid, structure checks."""

import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koszul_rank import flattening
from koszul_rank.exact_linalg import (
    RANK_PRIME,
    ExactMatrix,
    commutator,
    det_exact,
    invert,
    random_int_matrix,
    random_invertible,
    rank_exact,
    rank_mod,
    reduce_mod,
)
from koszul_rank.flattening import (
    BlockLabel,
    LayoutError,
    SchurTerm,
    StructureError,
    SymbolicBlockMatrix,
    assemble,
    assemble_mod,
    check_structure,
    commutator_matrix,
    commutator_pattern,
    dump_symbolic,
    flattening_pattern,
    flattening_rank_mod,
    normalize_pivot,
    parse_symbolic,
    partition_blocks,
    reference_pattern,
    schur_terms,
)
from koszul_rank.tensor_core import SliceFamily, Tensor3, slice_family
from oracles import gauss_rank, koszul_matrix

FIXTURES = Path(__file__).parent / "fixtures"


def family(p, n, rng, identity_pivot=True):
    first = ExactMatrix.identity(n) if identity_pivot else random_invertible(rng, n)
    xs = tuple(random_int_matrix(rng, n, n) for _ in range(2 * p))
    return SliceFamily(p, n, n, (first, *xs))


def fixture_tokens(name):
    lines = (FIXTURES / name).read_text().strip().splitlines()
    return [line.split() for line in lines]


def pattern_tokens(sym, signed=True):
    return [[label.token(signed) for label in row] for row in sym.labels]


def test_pattern_matches_reference_p1_p2():
    for p in (1, 2):
        sym = flattening_pattern(p)
        assert sym.same_pattern(reference_pattern(p)), f"p={p}"


def test_commutator_pattern_p2_signs_match_fixture():
    assert pattern_tokens(commutator_pattern(2)) == fixture_tokens("commutators_p2.txt")


def test_commutator_pattern_p3_matches_reference_up_to_sign():
    assert commutator_pattern(3).same_pattern(reference_pattern(3), signed=False)


def test_reference_pattern_rejects_other_p():
    with pytest.raises(ValueError):
        reference_pattern(4)


def test_nonzero_block_count():
    for p in (1, 2, 3, 4):
        sym = flattening_pattern(p)
        nonzero = sum(1 for row in sym.labels for label in row if not label.is_zero)
        assert nonzero == comb(2 * p + 1, p + 1) * (p + 1)
    for p, count in [(5, 2772), (6, 12012)]:
        sym = flattening_pattern(p)
        assert sum(map(len, sym.rows)) == comb(2 * p + 1, p + 1) * (p + 1) == count


def test_cached_commutator_grid_is_read_only():
    grid = commutator_pattern(2)
    row = grid.rows[0]
    with pytest.raises(TypeError):
        row[0] = BlockLabel.of_commutator(1, 2)
    with pytest.raises(TypeError):
        del row[next(iter(row))]
    assert commutator_pattern(2) is grid
    assert grid.same_pattern(commutator_pattern.__wrapped__(2))
    # the rows are copies: the mapping handed to the constructor stays the caller's
    given = {0: BlockLabel.of_slice(1)}
    sym = SymbolicBlockMatrix(1, 1, (given,))
    given[0] = BlockLabel.of_slice(2)
    assert sym.label(0, 0) == BlockLabel.of_slice(1)


def test_dense_labels_view_matches_the_sparse_rows():
    # the view fills every absent cell with one shared zero label
    for p in (1, 2, 3, 4):
        for sym in (flattening_pattern(p), commutator_pattern(p)):
            view = sym.labels
            assert len(view) == sym.block_rows
            for i, row in enumerate(view):
                assert len(row) == sym.block_cols
                for j, label in enumerate(row):
                    sparse = sym.label(i, j)
                    assert label == (BlockLabel.zero() if sparse is None else sparse), (p, i, j)
                    assert label.is_zero == (sparse is None)


def test_flattening_is_square_of_expected_size():
    for p in (1, 2, 3):
        sym = flattening_pattern(p)
        assert sym.block_rows == sym.block_cols == comb(2 * p + 1, p)


def test_flattening_rows_share_one_zero_label():
    for p in (1, 2, 3):
        sym = flattening_pattern(p)
        for row in sym.labels:
            assert len({id(label) for label in row if label.is_zero}) == 1, f"p={p}"


def test_assemble_rejects_non_square_slices():
    bad = SliceFamily(1, 2, 3, tuple(ExactMatrix.zeros(2, 3) for _ in range(3)))
    sym = flattening_pattern(bad.p)
    with pytest.raises(ValueError, match="non-square"):
        assemble(sym, bad)


def test_assemble_examples():
    rng = random.Random(20)
    fam = family(1, 2, rng)
    zero_sym = SymbolicBlockMatrix(2, 2, ({}, {}))
    assert assemble(zero_sym, fam).is_zero()
    neg_sym = SymbolicBlockMatrix(1, 1, ({0: BlockLabel.of_slice(0, -1)},))
    assert assemble(neg_sym, fam) == -fam.slices[0]
    missing = SymbolicBlockMatrix(1, 1, ({0: BlockLabel.of_slice(5, 1)},))
    with pytest.raises(ValueError, match="missing slice"):
        assemble(missing, fam)


def test_assemble_p1_det_equals_commutator_det():
    rng = random.Random(21)
    fam = family(1, 2, rng)
    sym = flattening_pattern(fam.p)
    assert det_exact(assemble(sym, fam)) == det_exact(commutator(fam.slices[1], fam.slices[2]))


def test_partition_blocks_shapes():
    for p, q_shape in [(1, (1, 2)), (2, (4, 6)), (3, (15, 20))]:
        sym = flattening_pattern(p)
        q, r = partition_blocks(sym, p)
        assert (q.block_rows, q.block_cols) == q_shape
        # the diag(X_0) corner: rows after Q's, columns up to R's
        assert sym.block_rows - q.block_rows == sym.block_cols - r.block_cols == comb(2 * p, p)
        assert (r.block_rows, r.block_cols) == (q_shape[1], q_shape[0])


def test_partition_blocks_p1_q_content():
    q, _ = partition_blocks(flattening_pattern(1), 1)
    assert q.labels == ((BlockLabel.of_slice(1, 1), BlockLabel.of_slice(2, -1)),)


def test_partition_blocks_detects_tampering():
    sym = flattening_pattern(2)
    rows = [dict(row) for row in sym.rows]
    rows[0][9] = BlockLabel.of_slice(1, 1)  # plant a label in the zero corner
    bad = SymbolicBlockMatrix(sym.block_rows, sym.block_cols, tuple(rows))
    with pytest.raises(LayoutError, match="layout mismatch"):
        partition_blocks(bad, 2)


@pytest.mark.parametrize(
    "claim",
    [
        "pivot block not square",
        "pivot diagonal not +X0",
        "pivot block not diagonal",
        "Q contains a non-slice or X0 label",
        "R contains a non-slice or X0 label",
    ],
)
def test_partition_blocks_names_each_broken_claim(claim):
    # break one claim of the p = 2 layout (Q is 4 x 6 blocks); the upper
    # right corner is planted in test_partition_blocks_detects_tampering
    sym = flattening_pattern(2)
    rows = [dict(row) for row in sym.rows]
    pivot_row = rows[comb(4, 3)]
    if claim == "pivot block not square":
        rows.append({})
    elif claim == "pivot diagonal not +X0":
        pivot_row[0] = BlockLabel.of_slice(0, -1)
    elif claim == "pivot block not diagonal":
        pivot_row[1] = BlockLabel.of_slice(1, 1)
    elif claim == "Q contains a non-slice or X0 label":
        rows[0][0] = BlockLabel.of_slice(0, 1)
    else:
        pivot_row[max(pivot_row)] = BlockLabel.of_commutator(1, 2)
    bad = SymbolicBlockMatrix(len(rows), sym.block_cols, tuple(rows))
    with pytest.raises(LayoutError, match=re.escape(f"layout mismatch: {claim}")):
        partition_blocks(bad, 2)


def test_commutator_pattern_p1_is_single_commutator():
    grid = commutator_pattern(1)
    assert grid.block_rows == grid.block_cols == 1
    assert grid.label(0, 0).same_symbol(BlockLabel.of_commutator(1, 2))


def test_commutator_matrix_requires_identity_pivot():
    rng = random.Random(22)
    fam = family(1, 2, rng, identity_pivot=False)
    with pytest.raises(ValueError, match="normalize first"):
        commutator_matrix(fam)
    normalized = normalize_pivot(fam)
    assert normalized.slices[0] == ExactMatrix.identity(2)
    commutator_matrix(normalized)  # now fine


def test_normalize_pivot_rejects_singular():
    fam = SliceFamily(1, 2, 2, (ExactMatrix.zeros(2, 2),) * 3)
    with pytest.raises(ValueError, match="singular"):
        normalize_pivot(fam)


def test_det_factorization_p1_p2():
    rng = random.Random(23)
    for p in (1, 2):
        for n in (2, 3):
            fam = family(p, n, rng)
            sym = flattening_pattern(fam.p)
            big = det_exact(assemble(sym, fam))
            grid = commutator_matrix(fam)
            assert big == det_exact(grid), f"p={p} n={n}"


def test_flattening_rank_invariant_under_conjugation():
    rng = random.Random(24)
    n, p = 2, 1
    fam = family(p, n, rng, identity_pivot=False)
    sym = flattening_pattern(fam.p)
    base_rank = rank_exact(assemble(sym, fam))
    g = random_invertible(rng, n)
    g_inv = invert(g)
    conjugated = SliceFamily(p, n, n, tuple(g * x * g_inv for x in fam.slices))
    assert rank_exact(assemble(sym, conjugated)) == base_rank


def test_commutator_pattern_rejects_unbalanced_cell(monkeypatch):
    # flip the sign of one R block: the cells it feeds get two terms of the
    # same sign, which is no commutator
    import koszul_rank.flattening as flattening

    sym = flattening_pattern(2)
    rows = [dict(row) for row in sym.rows]
    row = rows[comb(4, 3)]  # the first diag(X_0) row
    c = next(j for j in row if j >= comb(4, 2))  # its first R block
    row[c] = -row[c]
    bad = SymbolicBlockMatrix(sym.block_rows, sym.block_cols, tuple(rows))
    monkeypatch.setattr(flattening, "flattening_pattern", lambda p: bad)
    commutator_pattern.cache_clear()  # a grid built earlier would be served unchecked
    with pytest.raises(StructureError, match=r"structure violation at cell \(\d+,\d+\)"):
        commutator_pattern(2)


def test_schur_terms_of_the_p2_grid():
    # A = [[X23, -X24], [X13, -X14]], B = diag(X34, X34), C = diag(X12, X12)
    # and D = [[-X14, X24], [-X13, X23]]; block (I, J) of S = B - A C^-1 D
    t = SchurTerm
    assert schur_terms(2) == (
        (
            (t(1, ((3, 4),)), t(1, ((2, 3), (1, 4))), t(-1, ((2, 4), (1, 3)))),
            (t(-1, ((2, 3), (2, 4))), t(1, ((2, 4), (2, 3)))),
        ),
        (
            (t(1, ((1, 3), (1, 4))), t(-1, ((1, 4), (1, 3)))),
            (t(1, ((3, 4),)), t(-1, ((1, 3), (2, 4))), t(1, ((1, 4), (2, 3)))),
        ),
    )
    assert schur_terms(1) == ()  # the p = 1 grid is all corner


@pytest.mark.parametrize(
    "cell, label, message",
    [
        ((2, 0), BlockLabel.of_commutator(1, 3), "corner block row 0"),  # wrong diagonal
        ((3, 0), BlockLabel.of_commutator(1, 2), "corner block row 1"),  # off the diagonal
        ((3, 2), BlockLabel.of_commutator(3, 4), "quadratic in X4"),  # meets A's -X24
    ],
)
def test_schur_terms_rejects_a_broken_corner_or_a_quadratic_term(monkeypatch, cell, label, message):
    grid = commutator_pattern(2)
    rows = [dict(row) for row in grid.rows]
    rows[cell[0]][cell[1]] = label
    bad = SymbolicBlockMatrix(grid.block_rows, grid.block_cols, tuple(rows))
    monkeypatch.setattr(flattening, "commutator_pattern", lambda p: bad)
    with pytest.raises(StructureError, match=message):
        schur_terms.__wrapped__(2)  # past the cache, which holds the true grid's terms


def test_check_structure_names_the_broken_corner_row(monkeypatch):
    grid = commutator_pattern(2)
    rows = [dict(row) for row in grid.rows]
    rows[3][0] = BlockLabel.of_commutator(1, 2)  # off the diagonal of the corner
    bad = SymbolicBlockMatrix(grid.block_rows, grid.block_cols, tuple(rows))
    monkeypatch.setattr(flattening, "commutator_pattern", lambda p: bad)
    corner = next(c for c in check_structure(2).checks if c.name == "corner-diag-[X1,X2]")
    assert not corner.passed
    assert corner.detail.startswith("corner block row 1 ")


def test_commutator_pattern_single_cells_up_to_p6():
    # building the grid checks every cell (StructureError would propagate);
    # p = 6 is past the CLI cap
    for p in range(1, 7):
        grid = commutator_pattern(p)
        assert (grid.block_rows, grid.block_cols) == (comb(2 * p, p + 1),) * 2
        assert grid is commutator_pattern(p)  # built once per p
    assert [sum(map(len, commutator_pattern(p).rows)) for p in (5, 6)] == [3150, 16632]


def test_check_structure_p2():
    report = check_structure(2)
    assert report.ok
    names = [c.name for c in report.checks]
    assert "corner-diag-[X1,X2]" in names
    assert "diagonal-covers-all-indices" in names


def test_check_structure_p3():
    report = check_structure(3)
    assert report.ok
    corner = next(c for c in report.checks if c.name == "corner-diag-[X1,X2]")
    assert "6" in corner.detail


def test_check_structure_p4_exclusion_refuted():
    # The index-exclusion rule genuinely fails at p=4: the diagonal contains
    # the label (2, 2p) (see the lex pairing of {0,1,3,6} with {1,2,3,6,8}).
    # Everything else holds. Asserted as-is so the refutation stays visible.
    report = check_structure(4)
    by_name = {c.name: c for c in report.checks}
    assert by_name["single-commutator-cells"].passed
    assert by_name["corner-diag-[X1,X2]"].passed
    assert by_name["diagonal-labels-repeat"].passed
    assert not by_name["diagonal-excludes-extremes"].passed
    assert "(2, 8)" in by_name["diagonal-excludes-extremes"].detail


def test_check_structure_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        check_structure(6)


def test_dump_parse_roundtrip():
    for p in (1, 2):
        sym = flattening_pattern(p)
        assert parse_symbolic(dump_symbolic(sym)).same_pattern(sym)
    grid = commutator_pattern(2)
    assert parse_symbolic(dump_symbolic(grid)).same_pattern(grid)


def test_flattening_rank_matches_oracle_on_random_tensors():
    # The oracle builds the map directly from the tensor with its own sign
    # and layout conventions; ranks must agree with the assembled grid.
    rng = random.Random(26)
    for trial in range(10):
        p = rng.choice([1, 1, 2])
        dim_a = 2 * p + 1 + rng.randint(0, 2)
        b = rng.randint(2, 3)
        entries = {}
        for _ in range(rng.randint(3, dim_a * b * b // 2)):
            key = (rng.randrange(dim_a), rng.randrange(b), rng.randrange(b))
            entries[key] = rng.randint(-4, 4)
        tensor = Tensor3((dim_a, b, b), entries)
        alphas = [[rng.randint(-5, 5) for _ in range(dim_a)] for _ in range(2 * p + 1)]
        try:
            fam = slice_family(tensor, alphas)
        except ValueError:
            continue  # dependent draw; skip
        sym = flattening_pattern(fam.p)
        lib_rank = rank_exact(assemble(sym, fam))
        oracle_rank = gauss_rank(koszul_matrix(tensor, [[*map(int, a)] for a in alphas]))
        assert lib_rank == oracle_rank, f"trial {trial}"


def test_commutator_grid_is_negated_block_product():
    # The grid must equal -(Q Qbar) numerically, with Q's columns aligned to
    # Qbar's rows by prepending 0 to the column subset (lex-preserving).
    rng = random.Random(28)
    for p, n in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        fam = family(p, n, rng)
        q, r = partition_blocks(flattening_pattern(fam.p), fam.p)
        q_num = assemble(q, fam)
        qbar_num = assemble(r, fam)
        grid = commutator_matrix(fam)
        assert q_num * qbar_num == -grid, f"p={p} n={n}"


def test_p1_rank_splits_as_2b_plus_commutator_rank():
    # With X_0 invertible, eliminating the diag(X_0) pivot rows leaves the
    # rank of the commutator of the normalized slices:
    #   rank(flattening) = 2b + rank([X_0^-1 X_1, X_0^-1 X_2]).
    rng = random.Random(27)
    for trial in range(12):
        n = rng.randint(2, 4)
        fam = family(1, n, rng, identity_pivot=False)
        sym = flattening_pattern(fam.p)
        total = rank_exact(assemble(sym, fam))
        x0_inv = invert(fam.slices[0])
        comm_rank = rank_exact(commutator(x0_inv * fam.slices[1], x0_inv * fam.slices[2]))
        assert total == 2 * n + comm_rank, f"trial {trial}"


def test_strassen_identity_thirty_trials():
    rng = random.Random(25)
    for n in (2, 3):
        for trial in range(30):
            fam = family(1, n, rng)
            sym = flattening_pattern(fam.p)
            lhs = abs(det_exact(assemble(sym, fam)))
            rhs = abs(det_exact(commutator(fam.slices[1], fam.slices[2])))
            assert lhs == rhs, f"n={n} trial={trial}"


# -- flattening rank on the Schur complement ------------------------------------

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


def dense_rank_mod(fam):
    sym = flattening_pattern(fam.p)
    return rank_mod(assemble(sym, fam))


def ranked_sides(monkeypatch, fam):
    """flattening_rank_mod(fam) and the sides of every matrix it ranked."""
    sides = []
    real, real_rows = flattening.rank_mod, flattening.rank_mod_rows

    def spy(m, prime=RANK_PRIME):
        sides.append(m.rows)
        return real(m, prime)

    def spy_rows(rows, ncols, prime=RANK_PRIME):
        sides.append(len(rows))
        return real_rows(rows, ncols, prime)

    monkeypatch.setattr(flattening, "rank_mod", spy)
    monkeypatch.setattr(flattening, "rank_mod_rows", spy_rows)
    return flattening_rank_mod(fam), sides


@st.composite
def small_tensors(draw):
    """p in {1, 2} and a tensor that is a sum of a few integer rank-one terms.

    With fewer terms than the flattening side allows, the rank is deficient,
    so a wrong Schur offset or a missing normalization changes it.
    """
    p = draw(st.integers(1, 2))
    dim_a = 2 * p + 1 + draw(st.integers(0, 1))
    b = draw(st.integers(2, 4))
    values = st.integers(-3, 3)
    entries = {}
    for _ in range(draw(st.integers(1, b + 2))):
        a, u, v = (draw(st.lists(values, min_size=d, max_size=d)) for d in (dim_a, b, b))
        for i, x in enumerate(a):
            for j, y in enumerate(u):
                for k, z in enumerate(v):
                    if x * y * z:
                        entries[(i, j, k)] = entries.get((i, j, k), 0) + x * y * z
    alphas = draw(
        st.lists(st.lists(values, min_size=dim_a, max_size=dim_a), min_size=2 * p + 1, max_size=2 * p + 1)
    )
    return Tensor3((dim_a, b, b), entries), alphas


@PROPERTY
@given(small_tensors(), st.sampled_from([2, 3, 5, 7, RANK_PRIME]))
def test_schur_rank_equals_dense_rank_on_small_tensors(case, prime):
    # the rank identity holds over every GF(prime); small primes make a
    # singular X_0 and so the dense fallback common
    tensor, alphas = case
    try:
        fam = slice_family(tensor, alphas)
    except ValueError:
        assume(False)  # dependent covectors
    rank = flattening_rank_mod(fam, prime)
    assert rank == rank_mod(assemble(flattening_pattern(fam.p), fam), prime)
    if fam.p == 1 and prime == RANK_PRIME:
        assert rank == gauss_rank(koszul_matrix(tensor, alphas))


def test_schur_rank_ranks_only_the_commutator_grid(monkeypatch):
    rng = random.Random(41)
    for p, n in [(1, 3), (2, 2), (3, 2)]:
        fam = family(p, n, rng, identity_pivot=False)
        rank, sides = ranked_sides(monkeypatch, fam)
        assert sides == [comb(2 * p, p + 1) * n]
        assert rank == dense_rank_mod(fam) == rank_exact(assemble(flattening_pattern(p), fam))


def test_schur_rank_builds_no_exact_matrix(monkeypatch):
    # from the slices' residues on, the Schur path works on int rows mod the prime
    rng = random.Random(47)
    cases = [family(p, n, rng, identity_pivot=False) for p, n in [(1, 3), (2, 2), (3, 2)]]
    xs = tuple(ExactMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
                            for _ in range(3)]) for _ in range(5))
    cases.append(SliceFamily(2, 3, 3, xs))
    expected = [dense_rank_mod(fam) for fam in cases]
    built = []
    init = ExactMatrix.__init__

    def counting_init(self, entries):
        built.append(self)
        init(self, entries)

    monkeypatch.setattr(ExactMatrix, "__init__", counting_init)
    assert [flattening_rank_mod(fam) for fam in cases] == expected
    assert built == []


@st.composite
def commutator_families(draw):
    """p in 1..3 and 2p + 1 small slices, rational in about a third of the cases."""
    p, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.integers(-9, 9)
    if draw(st.integers(0, 2)) == 0:
        values = values | st.fractions(-9, 9, max_denominator=6)
    grid = st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)
    return SliceFamily(p, n, n, tuple(ExactMatrix(draw(grid)) for _ in range(2 * p + 1)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(commutator_families(), st.sampled_from([2, 3, 5, 7, RANK_PRIME]))
def test_assemble_mod_is_the_residue_of_assemble(fam, prime):
    xs = fam.slices
    assume(all(reduce_mod(x, prime) is not None for x in xs))
    pattern = commutator_pattern(fam.p)
    commutators = {
        (i, j): reduce_mod(commutator(xs[i], xs[j]), prime)
        for i in range(1, len(xs))
        for j in range(i + 1, len(xs))
    }
    rows = assemble_mod(pattern, commutators, fam.b, prime)
    assert rows == reduce_mod(assemble(pattern, fam), prime)


def test_schur_rank_of_a_family_that_commutes_after_normalization():
    # X_i = G A^i: the normalized slices A^i commute, so the commutator grid
    # vanishes and the rank is exactly binom(2p, p) * n, although the raw
    # slices G A^i do not commute
    rng = random.Random(42)
    for p, n in [(1, 3), (2, 3)]:
        g = random_invertible(rng, n)
        a = random_int_matrix(rng, n, n, -2, 2)
        powers = [ExactMatrix.identity(n)]
        for _ in range(2 * p):
            powers.append(powers[-1] * a)
        fam = SliceFamily(p, n, n, tuple(g * x for x in powers))
        assert commutator(fam.slices[1], fam.slices[2]) != ExactMatrix.zeros(n, n)
        rank = flattening_rank_mod(fam)
        assert rank == comb(2 * p, p) * n
        assert rank == dense_rank_mod(fam) == rank_exact(assemble(flattening_pattern(p), fam))


@pytest.mark.parametrize(
    "x0",
    [
        ExactMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]),  # singular over Q
        ExactMatrix([[1, 0, 0], [0, RANK_PRIME, 0], [0, 0, 1]]),  # det 2^61 - 1: singular mod it only
        ExactMatrix([[1, 2, 0], [0, 1, Fraction(1, RANK_PRIME)], [3, 0, 1]]),  # no image mod the prime
    ],
)
def test_schur_rank_falls_back_to_the_dense_flattening(monkeypatch, x0):
    rng = random.Random(43)
    for p in (1, 2):
        xs = tuple(random_int_matrix(rng, 3, 3) for _ in range(2 * p))
        fam = SliceFamily(p, 3, 3, (x0, *xs))
        rank, sides = ranked_sides(monkeypatch, fam)
        assert sides == [comb(2 * p + 1, p) * 3]
        assert rank == dense_rank_mod(fam)


def test_schur_rank_on_rational_slices_matches_dense_rank(monkeypatch):
    rng = random.Random(44)
    for p in (1, 2):
        xs = tuple(
            ExactMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)])
            for _ in range(2 * p + 1)
        )
        fam = SliceFamily(p, 3, 3, xs)
        assert det_exact(xs[0]) != 0
        rank, sides = ranked_sides(monkeypatch, fam)
        assert sides == [comb(2 * p, p + 1) * 3]
        assert rank == dense_rank_mod(fam) == rank_exact(assemble(flattening_pattern(p), fam))


def test_assemble_shares_one_zero_block_and_one_negation_per_label(monkeypatch):
    rng = random.Random(45)
    fam = family(2, 2, rng, identity_pivot=False)
    sym = flattening_pattern(2)
    grid = commutator_pattern(2)
    expected = ExactMatrix.from_blocks(
        [
            [
                ExactMatrix.zeros(2, 2) if label.is_zero else label.sign * fam.slices[label.index]
                for label in row
            ]
            for row in sym.labels
        ]
    )
    calls = {"zeros": 0, "neg": 0}
    zeros, neg = ExactMatrix.zeros.__func__, ExactMatrix.__neg__

    def counting_zeros(cls, rows, cols):
        calls["zeros"] += 1
        return zeros(cls, rows, cols)

    def counting_neg(self):
        calls["neg"] += 1
        return neg(self)

    monkeypatch.setattr(ExactMatrix, "zeros", classmethod(counting_zeros))
    monkeypatch.setattr(ExactMatrix, "__neg__", counting_neg)
    for pattern in (sym, grid):
        calls.update(zeros=0, neg=0)
        assemble(pattern, fam)
        negative = {label for row in pattern.labels for label in row if not label.is_zero and label.sign < 0}
        assert calls == {"zeros": 1, "neg": len(negative)}
    assert assemble(sym, fam) == expected


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: BlockLabel.of_commutator(2, 2), "commutator indices must differ", id="commutator-ii"),
        pytest.param(lambda: flattening._parse_token("+Y1"), "bad token", id="not-x"),
        pytest.param(lambda: flattening._parse_token("-X123"), "bad token", id="three-digits"),
        pytest.param(lambda: parse_symbolic("+X1 +X3_3"), "commutator indices must differ", id="underscore-ii"),
    ],
)
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_parse_symbolic_reads_the_underscore_tokens_of_two_digit_indices():
    grid = commutator_pattern(5)
    text = dump_symbolic(grid)
    assert "X1_10" in text or "X2_10" in text
    assert parse_symbolic(text).same_pattern(grid)
    assert parse_symbolic("-X3_12 .").label(0, 0) == BlockLabel.of_commutator(3, 12, -1)
