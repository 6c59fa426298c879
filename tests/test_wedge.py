"""Wedge basis enumeration, insertion signs, and the differ-by-one predicate."""

from math import comb

import pytest

from koszul_rank.wedge import differ_by_one, insert_sign, wedge_basis


def test_basis_p1_singletons():
    assert wedge_basis(1, 1) == ((0,), (1,), (2,))


def test_basis_p2_pairs():
    basis = wedge_basis(2, 2)
    assert len(basis) == 10
    assert basis[0] == (0, 1)
    assert basis[-1] == (3, 4)
    assert all(basis[i] < basis[i + 1] for i in range(9))


def test_basis_p3_cardinality4():
    assert len(wedge_basis(3, 4)) == 35


def test_basis_rejects_other_cardinalities():
    with pytest.raises(ValueError):
        wedge_basis(2, 4)
    with pytest.raises(ValueError):
        wedge_basis(0, 1)


def test_basis_split_on_zero():
    # lex order lists the subsets that contain 0 first, the order the flattening needs
    assert wedge_basis(2, 2)[:4] == ((0, 1), (0, 2), (0, 3), (0, 4))
    assert wedge_basis(2, 2)[4:] == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    for p in (1, 2, 3):
        for cardinality in (p, p + 1):
            basis = wedge_basis(p, cardinality)
            with_zero = comb(2 * p, cardinality - 1)
            assert all(0 in s for s in basis[:with_zero]) and all(0 not in s for s in basis[with_zero:])


def test_insert_sign_examples():
    assert insert_sign(0, (1, 2)) == (1, (0, 1, 2))
    assert insert_sign(1, (0, 2)) == (-1, (0, 1, 2))
    assert insert_sign(2, (0, 2)) is None


def test_insert_sign_is_position_parity():
    for p in (2, 3):
        for subset in wedge_basis(p, p):
            for k in range(2 * p + 1):
                result = insert_sign(k, subset)
                if k in subset:
                    assert result is None
                else:
                    sign, merged = result
                    assert merged == tuple(sorted(subset + (k,)))
                    assert sign == (-1) ** merged.index(k)


def test_differ_by_one_examples():
    assert differ_by_one((0, 1, 2), (0, 2)) == 1
    assert differ_by_one((0, 1, 2), (3, 4)) is None
    assert differ_by_one((0, 1, 2), (0, 1)) == 2
    with pytest.raises(ValueError):
        differ_by_one((0, 1, 2), (0,))


def test_differ_by_one_counts():
    for p in (1, 2, 3):
        big = wedge_basis(p, p + 1)
        small = wedge_basis(p, p)
        total = 0
        for i_subset in big:
            hits = sum(1 for j_subset in small if differ_by_one(i_subset, j_subset) is not None)
            assert hits == p + 1
            total += hits
        assert total == comb(2 * p + 1, p + 1) * (p + 1)
