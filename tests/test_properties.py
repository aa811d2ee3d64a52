"""Randomized property tests over small integer matrices."""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from brute import (
    adjugate,
    brute_circuits,
    cofactor_det,
    fan_rays_are_cyclic_flats,
    frac_rank,
    frac_rref,
    handle_columns,
    interior_witness,
    is_in_trop,
    rank_of_rows,
    reduce_on_columns,
)
from tropfan.errors import TropfanError
from tropfan.exact import IntMat, det, gauss_jordan, integer_kernel_basis, rank
from tropfan.fan import cyclic_bergman_fan
from tropfan.matroid import Matroid

entry = st.integers(min_value=-3, max_value=3)


def matrices(max_rows, max_cols, min_rows=1, min_cols=1):
    return st.integers(min_rows, max_rows).flatmap(
        lambda m: st.integers(min_cols, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


common = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@common
@given(matrices(5, 5, min_rows=1))
def test_det_matches_cofactor_expansion(rows):
    assume(len(rows) == len(rows[0]))
    A = IntMat.from_rows(rows)
    assert det(A) == cofactor_det(rows)


@common
@given(matrices(4, 7))
def test_rank_matches_fraction_elimination(rows):
    assert rank(IntMat.from_rows(rows)) == frac_rank(rows)


@common
@given(matrices(4, 7))
def test_kernel_properties(rows):
    A = IntMat.from_rows(rows)
    r = rank(A)
    assume(r < A.cols)
    K = integer_kernel_basis(A)
    assert K.rows == A.cols - r
    assert rank(K) == K.rows
    for arow in A.entries:
        for krow in K.entries:
            assert sum(x * y for x, y in zip(arow, krow)) == 0


@common
@given(matrices(4, 7))
def test_rref_is_canonical_for_rowspace(rows):
    doubled = [[2 * x for x in row] for row in rows]
    assert frac_rref(rows) == frac_rref(doubled)


@common
@given(matrices(4, 7))
def test_gauss_jordan_rows_are_pivot_times_rref(rows):
    m = [list(row) for row in rows]
    pivots, d = gauss_jordan(m)
    p = m[0][pivots[0]] if pivots else 1
    assert all(m[r][c] == p for r, c in enumerate(pivots))
    assert not any(any(row) for row in m[len(pivots):])
    assert abs(d) == abs(p)
    reduced = tuple(tuple(Fraction(x, p) for x in row) for row in m[: len(pivots)])
    assert reduced == frac_rref(rows)


@common
@given(matrices(4, 4))
def test_adjugate_matches_cofactors(rows):
    assume(len(rows) == len(rows[0]) and det(IntMat.from_rows(rows)) != 0)
    k = len(rows)
    adj, d = adjugate(rows)
    assert d == cofactor_det(rows)
    for i in range(k):
        for j in range(k):
            minor = [[rows[a][b] for b in range(k) if b != i] for a in range(k) if a != j]
            cof = (-1) ** (i + j) * (cofactor_det(minor) if minor else 1)
            assert adj[i][j] == cof


def _clean_matroid(rows):
    try:
        M = Matroid.from_matrix(rows)
    except TropfanError:
        return None
    return M


@common
@given(matrices(4, 7, min_rows=2, min_cols=4))
def test_circuits_are_minimal_dependent_sets(rows):
    M = _clean_matroid(rows)
    assume(M is not None)
    for handle in (M, M.dual()):
        assert list(handle.circuits()) == brute_circuits(handle_columns(handle))


@common
@given(matrices(3, 6, min_rows=2, min_cols=4))
def test_fan_cones_are_simplicial_distinct_and_supported(rows):
    M = _clean_matroid(rows)
    assume(M is not None)
    fan = cyclic_bergman_fan(M)
    ones = (1,) * M.n
    assert len(set(fan.maximal_cones)) == len(fan.maximal_cones)
    for ci, cone in enumerate(fan.maximal_cones):
        assert len(cone) == M.m - 1
        assert rank_of_rows([fan.rays[i] for i in cone] + [ones]) == M.m
        assert is_in_trop(M, interior_witness(fan, ci))
    assert fan_rays_are_cyclic_flats(fan, M)


@common
@given(matrices(3, 6, min_rows=2, min_cols=4))
def test_dual_involution_on_bases(rows):
    M = _clean_matroid(rows)
    assume(M is not None)
    D = M.dual()
    full = set(range(1, M.n + 1))
    assert set(D.bases) == {tuple(sorted(full - set(B))) for B in M.bases}
    assert D.dual().bases == M.bases


@common
@given(matrices(4, 6, min_rows=1, min_cols=1))
def test_reduce_on_basis_matches_fraction_reduction(rows):
    from itertools import combinations

    A = IntMat.from_rows(rows)
    m = A.rows
    assume(rank(A) == m)
    basis = next(
        (
            comb
            for comb in combinations(range(1, A.cols + 1), m)
            if frac_rank([[A.entries[r][c - 1] for c in comb] for r in range(m)]) == m
        ),
        None,
    )
    assume(basis is not None)
    reduced, cols = A.row_lists(), [b - 1 for b in basis]
    reduce_on_columns(reduced, cols)
    R = tuple(tuple(Fraction(x, reduced[r][c]) for x in reduced[r]) for r, c in enumerate(cols))
    # oracle: straightforward Gauss-Jordan over Fraction
    work = [[Fraction(x) for x in row] for row in A.entries]
    for r, c in enumerate(b - 1 for b in basis):
        piv_row = next(i for i in range(r, m) if work[i][c] != 0)
        work[r], work[piv_row] = work[piv_row], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
    assert R == tuple(tuple(row) for row in work)
