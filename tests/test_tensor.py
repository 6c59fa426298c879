"""Tensors, slices, decompositions and the identity factor."""

import random
from fractions import Fraction

import pytest

from koszul_rank.exact_linalg import (
    RANK_PRIME,
    ExactMatrix,
    rank_exact,
    rank_mod,
)
from koszul_rank.tensor_core import (
    RankOneTerm,
    SliceFamily,
    Tensor3,
    contract_a,
    decomposition_to_json,
    decomposition_from_json,
    identity_factor,
    matmul_tensor,
    slice_family,
    strassen_decomposition,
    tensor_from_json,
    tensor_to_json,
    verify_decomposition,
)
from oracles import apply_bilinear


def test_matmul_tensor_examples():
    t = matmul_tensor(1, 1, 1)
    assert t.dims == (1, 1, 1) and t.entries == {(0, 0, 0): 1}
    t = matmul_tensor(2, 2, 2)
    assert t.dims == (4, 4, 4) and t.nnz() == 8
    assert all(v == 1 for v in t.entries.values())
    t = matmul_tensor(2, 3, 2)
    assert t.dims == (6, 6, 4) and t.nnz() == 12
    with pytest.raises(ValueError, match="zero dimension"):
        matmul_tensor(2, 0, 1)


def test_matmul_tensor_evaluates_matrix_products():
    rng = random.Random(7)
    for n, l, m in [(2, 2, 2), (3, 2, 4), (3, 3, 3)]:
        t = matmul_tensor(n, l, m)
        x = [[Fraction(rng.randint(-5, 5)) for _ in range(l)] for _ in range(n)]
        y = [[Fraction(rng.randint(-5, 5)) for _ in range(m)] for _ in range(l)]
        out = apply_bilinear(t, [x[i][j] for i in range(n) for j in range(l)],
                             [y[j][k] for j in range(l) for k in range(m)])
        product = [sum(x[i][j] * y[j][k] for j in range(l)) for i in range(n) for k in range(m)]
        assert out == product


def test_contract_examples():
    t = matmul_tensor(2, 2, 2)
    zero = contract_a(t, [0, 0, 0, 0])
    assert zero.is_zero()
    ident = contract_a(t, [1, 0, 0, 1])
    assert ident == ExactMatrix.identity(4)
    assert rank_exact(ident) == 4
    single = Tensor3((1, 1, 1), {(0, 0, 0): 1})
    assert contract_a(single, [1]) == ExactMatrix([[1]])
    with pytest.raises(ValueError, match="length mismatch"):
        contract_a(t, [1, 0])


def test_contract_is_linear_in_alpha():
    rng = random.Random(8)
    t = matmul_tensor(2, 2, 2)
    for _ in range(10):
        x = [rng.randint(-5, 5) for _ in range(4)]
        y = [rng.randint(-5, 5) for _ in range(4)]
        both = contract_a(t, [a + b for a, b in zip(x, y)])
        assert both == contract_a(t, x) + contract_a(t, y)


def kron_identity(tensor, m):
    """T (x) Id_m in the B and C factors: entry (a, b*m+s, c*m+s) = T[a, b, c]."""
    a, b, c = tensor.dims
    entries = {
        (i, j * m + s, k * m + s): v for (i, j, k), v in tensor.entries.items() for s in range(m)
    }
    return Tensor3((a, b * m, c * m), entries)


def test_identity_factor_of_matmul_is_m_with_slices_alpha_transpose():
    rng = random.Random(11)
    for n, m in [(1, 4), (2, 2), (2, 3), (3, 3), (3, 5), (4, 4), (4, 6)]:
        t = matmul_tensor(n, n, m)
        reduced, copies = identity_factor(t)
        assert copies == m
        assert reduced.dims == (n * n, n, n)
        assert kron_identity(reduced, m) == t
        alpha = [rng.randint(-9, 9) for _ in range(n * n)]
        # alpha read as the n x n matrix A (row-major); the reduced slice is A^T
        assert contract_a(reduced, alpha) == ExactMatrix(
            [[alpha[i * n + j] for i in range(n)] for j in range(n)]
        )


def test_identity_factor_of_rectangular_matmul():
    # M_{n,l,m}: the reduced slices are l x n
    reduced, copies = identity_factor(matmul_tensor(2, 3, 4))
    assert copies == 4 and reduced.dims == (6, 3, 2)


def test_identity_factor_recovers_a_kronecker_product():
    rng = random.Random(12)
    base = Tensor3(
        (3, 2, 2),
        {(i, j, k): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
         for i in range(3) for j in range(2) for k in range(2)},
    )
    assert identity_factor(base) == (base, 1)
    reduced, copies = identity_factor(kron_identity(base, 3))
    assert (reduced, copies) == (base, 3)


def test_identity_factor_rejects_near_misses():
    # a wrong factor would over-report every flattening rank m-fold
    t = matmul_tensor(3, 3, 3)
    perturbed = dict(t.entries)
    perturbed[next(iter(perturbed))] = 2
    assert identity_factor(Tensor3(t.dims, perturbed))[1] == 1
    missing = dict(t.entries)
    del missing[max(missing)]
    assert identity_factor(Tensor3(t.dims, missing))[1] == 1
    moved = dict(t.entries)
    del moved[(0, 1, 1)]
    moved[(0, 1, 2)] = 1  # same count, but s = 1 and t = 2 inside a 3 x 3 block
    assert identity_factor(Tensor3(t.dims, moved))[1] == 1


def test_identity_factor_trivial_cases():
    single = Tensor3((3, 2, 2), {(0, 0, 0): 1})
    assert identity_factor(single) == (single, 1)
    rectangular = Tensor3((2, 3, 5), {(0, 0, 0): 1, (1, 2, 4): 1})
    assert identity_factor(rectangular) == (rectangular, 1)
    # the zero tensor factors through every divisor; the largest is taken
    assert identity_factor(Tensor3((4, 6, 4), {})) == (Tensor3((4, 3, 2), {}), 2)


def test_slice_family_examples():
    t = matmul_tensor(2, 2, 2)
    family = slice_family(t, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert family.p == 1
    assert rank_exact(family.slices[0]) == 4
    with pytest.raises(ValueError, match="subspace"):
        slice_family(t, [[1, 0, 0, 1], [1, 0, 0, 1], [0, 0, 1, 0]])
    simple = Tensor3((3, 2, 2), {(0, 0, 0): 1})
    basis_family = slice_family(simple, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert basis_family.slices[0] == ExactMatrix([[1, 0], [0, 0]])
    assert basis_family.slices[1].is_zero() and basis_family.slices[2].is_zero()



def test_slice_family_independence_is_decided_over_q():
    # the third covector is the first plus RANK_PRIME times a unit vector:
    # dependent mod the prime, independent over Q, so the modular rank comes
    # out short and the exact elimination must accept the covectors
    t = matmul_tensor(2, 2, 2)
    alphas = [[1, 0, 0, 1], [0, 1, 0, 0], [1, 0, RANK_PRIME, 1]]
    assert rank_mod(ExactMatrix(alphas)) == 2 and rank_exact(ExactMatrix(alphas)) == 3
    assert slice_family(t, alphas).slices[2] == contract_a(t, alphas[2])
    # rational covectors whose denominators are multiples of the prime
    scaled = [[Fraction(x, RANK_PRIME) for x in a] for a in alphas]
    assert slice_family(t, scaled).p == 1
    for dependent in (
        [[1, 0, 0, 1], [0, 1, 0, 0], [2, 3, 0, 2]],
        [[1, 0, 0, 1], [0, 1, 0, 0], [Fraction(1, RANK_PRIME), 0, 0, Fraction(1, RANK_PRIME)]],
    ):
        with pytest.raises(ValueError, match="subspace"):
            slice_family(t, dependent)

def test_verify_decomposition_unit_terms():
    t = matmul_tensor(2, 2, 2)
    terms = []
    for (i, j, k) in t.entries:
        a = [Fraction(0)] * 4
        b = [Fraction(0)] * 4
        c = [Fraction(0)] * 4
        a[i], b[j], c[k] = Fraction(1), Fraction(1), Fraction(1)
        terms.append(RankOneTerm(tuple(a), tuple(b), tuple(c)))
    assert len(terms) == 8
    assert verify_decomposition(t, terms)


def test_strassen_decomposition_is_valid():
    terms = strassen_decomposition()
    assert len(terms) == 7
    assert verify_decomposition(matmul_tensor(2, 2, 2), terms)


def test_verify_decomposition_invariances():
    t = matmul_tensor(2, 2, 2)
    terms = strassen_decomposition()
    rng = random.Random(9)
    shuffled = list(terms)
    rng.shuffle(shuffled)
    assert verify_decomposition(t, shuffled)
    lam = Fraction(5, 3)
    rescaled = [
        RankOneTerm(tuple(lam * x for x in terms[0].a), terms[0].b,
                    tuple(x / lam for x in terms[0].c))
    ] + list(terms[1:])
    assert verify_decomposition(t, rescaled)
    assert not verify_decomposition(t, terms[:6])


def test_verify_decomposition_empty_terms():
    zero = Tensor3((2, 2, 2), {})
    assert verify_decomposition(zero, [])
    assert not verify_decomposition(matmul_tensor(2, 2, 2), [])


def test_rank_one_term_rejects_zero_factor():
    with pytest.raises(ValueError):
        RankOneTerm((0, 0), (1, 0), (1, 0))


def test_unfolding_rank_is_full_for_matmul():
    # the dimA x (dimB*dimC) unfolding: row i holds the slice T[i, :, :]
    for n, l, m in [(2, 2, 2), (2, 3, 2), (3, 2, 2)]:
        t = matmul_tensor(n, l, m)
        rows = [[0] * (t.dim_b * t.dim_c) for _ in range(t.dim_a)]
        for (i, j, k), value in t.entries.items():
            rows[i][j * t.dim_c + k] = value
        assert rank_exact(ExactMatrix(rows)) == n * l


def test_tensor_json_roundtrip():
    t = matmul_tensor(2, 3, 2)
    assert tensor_from_json(tensor_to_json(t)) == t
    obj = {"dims": [2, 2, 2], "entries": [[0, 0, 0, "1/3"], [1, 1, 1, "-2"]]}
    t2 = tensor_from_json(obj)
    assert t2.entries[(0, 0, 0)] == Fraction(1, 3)
    assert tensor_to_json(t2)["entries"][1] == [1, 1, 1, "-2"]


def test_tensor_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Tensor3((2, 2, 2), [((0, 0, 0), 1), ((0, 0, 0), 2)])
    with pytest.raises(ValueError, match="out of range"):
        Tensor3((2, 2, 2), {(0, 0, 5): 1})
    t = Tensor3((2, 2, 2), {(0, 0, 0): 0})
    assert t.nnz() == 0


def test_decomposition_json_roundtrip():
    terms = strassen_decomposition()
    assert decomposition_from_json(decomposition_to_json(terms)) == terms


_I2, _I3 = ExactMatrix.identity(2), ExactMatrix.identity(3)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Tensor3((2, 0, 2), {}), "zero dimension", id="tensor-dims"),
        pytest.param(lambda: SliceFamily(0, 2, 2, (_I2,)), r"p must be >= 1", id="family-p"),
        pytest.param(lambda: SliceFamily(1, 2, 2, (_I2, _I2)), r"need exactly 2p\+1 slices", id="family-count"),
        pytest.param(lambda: SliceFamily(1, 2, 2, (_I2, _I2, _I3)), "slices must share one shape", id="family-shapes"),
        pytest.param(
            lambda: slice_family(matmul_tensor(2, 2, 2), [[1, 0, 0, 0]] * 4), "need an odd number", id="even-count"
        ),
        pytest.param(
            lambda: slice_family(matmul_tensor(2, 2, 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            "length mismatch",
            id="covector-length",
        ),
        pytest.param(
            lambda: verify_decomposition(matmul_tensor(2, 2, 2), [RankOneTerm((1,), (1,), (1,))]),
            "term shape mismatch",
            id="term-shape",
        ),
        pytest.param(lambda: tensor_from_json({"dims": [2, 2], "entries": []}), "dims must have length 3", id="json-dims"),
    ],
)
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
