"""Exact linear algebra: rank, reduction, determinants, kernels."""

import random
from fractions import Fraction

import pytest

from brute import (
    cofactor_det,
    frac_rank,
    frac_rref,
    kernel_rows,
    maximal_minor_gcd,
    reduce_on_columns,
)
from conftest import UNSATURATED_3X7, UNSPANNED_3X7, small_corpus
from tropfan.data import (
    DEMO_4X7,
    GRAPHIC_3X6,
    TANGENT_CONIC_CUBIC_4X16,
    TANGENT_LINE_CUBIC_4X13,
    TANGENT_LINE_CUBIC_GALE_9X13,
    TANGENT_QUADRICS_5X20,
    cube_matrix,
)
from tropfan.exact import (
    IntMat,
    det,
    gauss_jordan,
    integer_kernel_basis,
    rank,
    solve_columns,
)


def reduce_on_basis(A, basis):
    """Rows of A over Fraction with the (1-based) basis columns reduced to the identity.

    One pivot_step per basis column; row r is then p times the row with a 1
    in column sorted(basis)[r].
    """
    m, cols = A.row_lists(), sorted(b - 1 for b in basis)
    reduce_on_columns(m, cols)
    return tuple(tuple(Fraction(x, m[r][c]) for x in m[r]) for r, c in enumerate(cols))


def test_rank_identity():
    assert rank(IntMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_graphic_example():
    assert rank(GRAPHIC_3X6) == 3


def test_rank_zero_matrix():
    assert rank(IntMat.from_rows([[0, 0, 0, 0], [0, 0, 0, 0]])) == 0


def test_rank_matches_fraction_oracle():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        A = IntMat.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        assert rank(A) == frac_rank(A.entries)


def test_reduce_on_basis_demo_matrix_already_reduced():
    R = reduce_on_basis(DEMO_4X7, (1, 2, 3, 4))
    assert R == tuple(tuple(Fraction(x) for x in row) for row in DEMO_4X7.entries)


def test_reduce_on_basis_identity():
    I3 = IntMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert reduce_on_basis(I3, (1, 2, 3)) == frac_rref(I3.entries)


def test_reduce_on_basis_divides():
    A = IntMat.from_rows([[2, 0, 1], [0, 2, 1]])
    R = reduce_on_basis(A, (1, 2))
    assert R == (
        (Fraction(1), Fraction(0), Fraction(1, 2)),
        (Fraction(0), Fraction(1), Fraction(1, 2)),
    )


def test_reduce_on_basis_singular():
    A = IntMat.from_rows([[1, 1, 0], [2, 2, 1]])
    with pytest.raises(ValueError):
        reduce_on_basis(A, (1, 2))


def test_reduce_on_basis_identity_block_and_rowspace():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(m, 7)
        A = IntMat.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        if rank(A) != m:
            continue
        cols = list(range(1, n + 1))
        rng.shuffle(cols)
        basis = None
        for comb in [tuple(sorted(cols[:m]))]:
            sub = [[A.entries[r][c - 1] for c in comb] for r in range(m)]
            if frac_rank(sub) == m:
                basis = comb
        if basis is None:
            continue
        R = reduce_on_basis(A, basis)
        for r, b in enumerate(sorted(basis)):
            for i in range(m):
                assert R[i][b - 1] == (1 if i == r else 0)
        assert frac_rref(R) == frac_rref(A.entries)


def test_det_identity_and_permutation():
    assert det(IntMat.from_rows([[1, 0], [0, 1]])) == 1
    assert det(IntMat.from_rows([[0, 1], [1, 0]])) == -1


def test_det_against_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 6)
        A = IntMat.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert det(A) == cofactor_det([list(r) for r in A.entries])


def test_kernel_of_single_row():
    K = integer_kernel_basis(IntMat.from_rows([[1, 1]]))
    assert frac_rref(K.entries) == frac_rref([[1, -1]])


def test_kernel_matches_printed_gale_dual():
    K = integer_kernel_basis(TANGENT_LINE_CUBIC_4X13)
    assert K.rows == 9 and K.cols == 13
    assert frac_rref(K.entries) == frac_rref(TANGENT_LINE_CUBIC_GALE_9X13.entries)


def test_kernel_keeps_the_rref_vectors_when_they_span():
    # the Hermite form pivots on the free columns first, so a kernel that the
    # rref's vectors already span comes out row for row as those vectors
    for A in (TANGENT_LINE_CUBIC_4X13, TANGENT_CONIC_CUBIC_4X16, cube_matrix(4)):
        m = A.row_lists()
        pivots, _ = gauss_jordan(m)
        assert list(integer_kernel_basis(A).entries) == kernel_rows(m, pivots)


def test_kernel_orthogonality_rank_and_primitivity():
    rng = random.Random(3)
    named = [A for _, A in small_corpus()]
    named += [TANGENT_QUADRICS_5X20, UNSPANNED_3X7, UNSATURATED_3X7]
    randoms = []
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(m + 1, 8)
        randoms.append(IntMat.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]))
    for A in named + randoms:
        r = rank(A)
        n = A.cols
        if r == n:
            continue
        K = integer_kernel_basis(A)
        assert K.rows == n - r
        assert rank(K) == n - r
        for arow in A.entries:
            for krow in K.entries:
                assert sum(a * k for a, k in zip(arow, krow)) == 0
        # index 1: K's rows span all of ker A ∩ Z^n, not a sublattice
        assert maximal_minor_gcd(K) == 1
        from math import gcd

        for krow in K.entries:
            g = 0
            for x in krow:
                g = gcd(g, x)
            assert g == 1
            assert next(x for x in krow if x) > 0


def test_no_floats_anywhere():
    R = reduce_on_basis(DEMO_4X7, (1, 2, 3, 4))
    assert all(isinstance(x, Fraction) for row in R for x in row)
    K = integer_kernel_basis(TANGENT_LINE_CUBIC_4X13)
    assert all(isinstance(x, int) for row in K.entries for x in row)
    assert isinstance(det(IntMat.from_rows([[3, 1], [1, 2]])), int)
    assert all(isinstance(x, Fraction) for x in solve_columns([(2, 0), (0, 3)], (1, 1)))


@pytest.mark.parametrize("x", [0.9, 2.0, Fraction(7, 2), Fraction(4, 1), "3"])
def test_from_rows_rejects_non_integer_entries(x):
    # int() would read 0.9 as 0 and Fraction(7, 2) as 3 without a word
    with pytest.raises(TypeError):
        IntMat.from_rows([[1, 2], [3, x]])
    assert IntMat.from_rows([[1, 2], [3, True]]).entries == ((1, 2), (3, 1))
