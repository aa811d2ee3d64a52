"""Matroid layer: bases, circuits, duality, cyclic flats, Tutte polynomial."""

import random
from itertools import combinations

import pytest

from brute import (
    brute_circuits,
    brute_cyclic_flats,
    brute_fundamental_circuit,
    brute_rank,
    brute_tutte,
    closure_cyclic_flats,
    tutte_eval,
    columns_of,
    handle_columns,
    independent,
    lex_bases_and_masks,
)
from conftest import CHAIN_3X6, UNIFORM_2_4, random_fan_matrices, small_corpus
from tropfan import matroid as matroid_module
from tropfan.data import (
    DEMO_4X7,
    GRAPHIC_3X6,
    TANGENT_CONIC_CUBIC_4X16,
    TANGENT_LINE_CUBIC_4X13,
    TANGENT_LINE_CUBIC_GALE_9X13,
    TANGENT_QUADRICS_5X20,
    UNIFORM_2_3,
    cube_matrix,
)
from tropfan.errors import (
    HasColoops,
    HasLoops,
    NotABasis,
    RankDeficient,
    WrongSize,
)
from tropfan.exact import IntMat, integer_kernel_basis
from tropfan.fan import cyclic_bergman_fan
from tropfan.matroid import Matroid
from tropfan.util import elements_of, mask_of


def circuit(M, e, B):
    """C(e, B) as the sorted tuple that fundamental_circuit_masks gives for it."""
    return elements_of(M.fundamental_circuit_masks(B)[e] | 1 << (e - 1))


def test_from_matrix_graphic_clean():
    M = Matroid.from_matrix(GRAPHIC_3X6)
    assert (M.n, M.m) == (6, 3)
    assert M.loops == () and M.coloops == ()


def test_from_matrix_zero_column_raises():
    with pytest.raises(HasLoops) as exc:
        Matroid.from_matrix([[1, 0, 0], [0, 0, 1]])
    assert exc.value.indices == (2,)


def test_from_matrix_identity_raises_coloops():
    with pytest.raises(HasColoops) as exc:
        Matroid.from_matrix([[1, 0], [0, 1]])
    assert exc.value.indices == (1, 2)


def test_from_matrix_nonstrict_records():
    M = Matroid.from_matrix([[1, 0, 0], [0, 0, 1]], strict=False)
    assert M.loops == (2,)
    assert M.coloops == (1, 3)


def test_from_matrix_rank_zero():
    with pytest.raises(RankDeficient):
        Matroid.from_matrix([[0, 0], [0, 0]])


def test_from_matrix_drops_dependent_rows():
    M = Matroid.from_matrix([[1, 0, 1], [2, 0, 2], [0, 1, 1]], strict=False)
    assert M.m == 2
    assert M.loops == ()


def test_is_basis_graphic():
    M = Matroid.from_matrix(GRAPHIC_3X6)
    assert (1, 5, 6) in M.bases
    assert (1, 2, 5) not in M.bases


def test_elements_outside_the_ground_set_are_rejected():
    # 0 used to read the last column and n + 1 to raise IndexError
    M = Matroid.from_matrix(GRAPHIC_3X6)
    for S in ((0, 1, 5), (1, 5, 7)):
        for handle in (M, M.dual()):
            with pytest.raises(WrongSize):
                handle.fundamental_circuit_masks(S)
    assert (1, 5, 6) in M.bases
    assert (2, 3, 4) in M.dual().bases


def test_enumerate_bases_uniform():
    M = Matroid.from_matrix(UNIFORM_2_3)
    assert list(M.enumerate_bases()) == [(1, 2), (1, 3), (2, 3)]
    assert len(M.bases) == 3


def test_enumerate_bases_free_matroid():
    M = Matroid.from_matrix([[1, 0], [0, 1]], strict=False)
    assert list(M.enumerate_bases()) == [(1, 2)]


def test_enumerate_bases_lex_and_oracle():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        cols = columns_of(A)
        expected = [
            S for S in combinations(range(1, M.n + 1), M.m) if independent(cols, S)
        ]
        assert list(M.enumerate_bases()) == expected, name


def test_dual_bases_are_complements():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        D = M.dual()
        full = set(range(1, M.n + 1))
        expected = sorted(tuple(sorted(full - set(B))) for B in M.bases)
        assert list(D.bases) == expected, name


def walk_handles():
    """Primal and dual handles of the corpora the basis walk is checked on."""
    handles = [Matroid.from_matrix(A) for _, A in small_corpus()]
    handles += random_fan_matrices(15, seed=40)
    handles += [
        Matroid.from_matrix(A)
        for A in (cube_matrix(4), TANGENT_LINE_CUBIC_4X13, TANGENT_CONIC_CUBIC_4X16)
    ]
    handles += [
        Matroid.from_matrix(rows, strict=False)
        for rows in (
            [[1, 1, 0, 2], [0, 0, 1, 1]],  # columns 1 and 2 repeated
            [[1, 0, 0, 1], [0, 0, 1, 1]],  # column 2 zero: a loop
            [[1, 2, -1]],  # rank 1
            [[1, 0, 3], [0, 1, 0], [2, 0, 1]],  # rank 3 on 3 elements
        )
    ]
    return [H for M in handles for H in (M, M.dual())]


def test_basis_walk_matches_lex_enumeration_and_fresh_reductions():
    # bases, their order and every fundamental_circuit_masks result, against
    # a rank test per rank-subset and a gauss_jordan per basis
    handles = walk_handles()
    for H in handles:
        got = [(B, H.fundamental_circuit_masks(B)) for B in H.enumerate_bases()]
        assert got == lex_bases_and_masks(H), (H.A, H.dual_mode)
    rank1, _, _, rank0 = handles[-4:]
    assert rank1.bases == ((1,), (2,), (3,))
    assert rank0.rank == 0 and rank0.bases == ((),)


def test_interleaved_walks_hand_off_only_their_own_rows(monkeypatch):
    M = Matroid.from_matrix(DEMO_4X7).dual()
    expected = dict(lex_bases_and_masks(M))
    calls = []  # copies of A: one per walk's root, one per fresh reduction
    real = IntMat.row_lists
    monkeypatch.setattr(IntMat, "row_lists", lambda A: calls.append(A) or real(A))
    first, second = M.enumerate_bases(), M.enumerate_bases()
    next(second)
    for step, (B, C) in enumerate(zip(first, second), start=1):
        # C was yielded last, so only B is reduced afresh
        assert B != C
        assert M.fundamental_circuit_masks(B) == expected[B]
        assert M.fundamental_circuit_masks(C) == expected[C]
        assert len(calls) == 2 + step


def test_masks_after_the_basis_cache_was_filled():
    # masks asked over the cached tuple are reduced afresh, all but the last
    # basis's; the fan then walks the bases again
    M = Matroid.from_matrix(cube_matrix(3))
    expected = lex_bases_and_masks(M)
    assert M.bases == tuple(B for B, _ in expected)
    assert [(B, M.fundamental_circuit_masks(B)) for B in M.bases] == expected
    fresh = Matroid.from_matrix(cube_matrix(3))
    assert cyclic_bergman_fan(M) == cyclic_bergman_fan(fresh)


def test_gale_dual_has_430_bases():
    M = Matroid.from_matrix(TANGENT_LINE_CUBIC_GALE_9X13)
    assert len(M.bases) == 430


def test_fundamental_circuits_demo():
    M = Matroid.from_matrix(DEMO_4X7)
    B = (1, 2, 3, 4)
    assert circuit(M, 5, B) == (2, 4, 5)
    assert circuit(M, 6, B) == (1, 2, 4, 6)
    assert circuit(M, 7, B) == (1, 2, 3, 7)


def test_fundamental_circuit_parallel_element():
    M = Matroid.from_matrix(CHAIN_3X6)
    assert circuit(M, 4, (1, 2, 3)) == (1, 4)


def test_fundamental_circuit_errors():
    # a repeated element leaves a set too small to be a basis
    M = Matroid.from_matrix(UNIFORM_2_3)
    with pytest.raises(NotABasis):
        M.fundamental_circuit_masks((1, 1))


def test_fundamental_circuit_masks_rejects_dependent_sets():
    # the right size but dependent: the elimination on the pivot columns
    # rejects them, in the primal and in the dual reduction
    M = Matroid.from_matrix(GRAPHIC_3X6)
    for handle, S in ((M, (1, 2, 5)), (M.dual(), (4, 5, 6))):
        assert len(S) == handle.rank and S not in handle.bases
        with pytest.raises(NotABasis):
            handle.fundamental_circuit_masks(S)
        with pytest.raises(NotABasis):
            handle.fundamental_circuit_masks(S[:-1])


def test_fundamental_circuit_against_exchange_oracle():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        cols = columns_of(A)
        for B in M.bases:
            for e in range(1, M.n + 1):
                if e in set(B):
                    continue
                assert circuit(M, e, B) == brute_fundamental_circuit(
                    cols, e, B
                ), (name, e, B)


def test_dual_circuit_identity_matches_kernel_representation():
    rng = random.Random(23)
    cases = [A for _, A in small_corpus()]
    cases += [M.A for M in random_fan_matrices(10, seed=91)]
    for A in cases:
        M = Matroid.from_matrix(A, strict=False)
        if M.m == A.cols:
            continue
        D = M.dual()
        K = Matroid.from_matrix(integer_kernel_basis(A), strict=False)
        assert D.bases == K.bases
        for B in D.bases:
            assert D.fundamental_circuit_masks(B) == K.fundamental_circuit_masks(B)


def test_fundamental_circuit_is_unique_circuit_in_extended_basis():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        circuits = M.circuits()
        for B in M.bases:
            allowed = set(B)
            for e in range(1, M.n + 1):
                if e in allowed:
                    continue
                inside = [C for C in circuits if set(C) <= allowed | {e}]
                assert inside == [circuit(M, e, B)], (name, e, B)


def test_dual_circuit_identity_two_element():
    M = Matroid.from_matrix([[1, 1]], strict=False).dual()
    assert M.fundamental_circuit_masks((1,)) == {2: 0b1}


def test_circuits_graphic():
    M = Matroid.from_matrix(GRAPHIC_3X6)
    assert M.circuits() == (
        (1, 2),
        (1, 3, 5, 6),
        (1, 4, 5, 6),
        (2, 3, 5, 6),
        (2, 4, 5, 6),
        (3, 4),
    )


def test_circuits_uniform_and_parallel():
    assert Matroid.from_matrix(UNIFORM_2_3).circuits() == ((1, 2, 3),)
    M = Matroid.from_matrix([[1, 0, 1], [0, 1, 0]], strict=False)
    assert M.circuits() == ((1, 3),)


def test_circuits_against_minimal_dependent_oracle():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        for handle in (M, M.dual()):
            want = brute_circuits(handle_columns(handle))
            assert list(handle.circuits()) == want, (name, handle.dual_mode)


def test_circuit_axioms():
    for name, A in small_corpus():
        circuits = [set(c) for c in Matroid.from_matrix(A).circuits()]
        for c1 in circuits:
            for c2 in circuits:
                if c1 is c2:
                    continue
                assert not c1 < c2
                for e in c1 & c2:
                    union = (c1 | c2) - {e}
                    assert any(c3 <= union for c3 in circuits), (name, c1, c2, e)


def test_cyclic_flats_match_brute_force():
    cases = [A for _, A in small_corpus()]
    cases += [M.A for M in random_fan_matrices(10, seed=13)]
    # a loop (column 3), a coloop (column 2) and a parallel class; and rank 1
    cases += [IntMat.from_rows([[1, 0, 0, 1, 2], [0, 1, 0, 0, 0]])]
    cases += [IntMat.from_rows([[1, 2, 3]])]
    for A in cases:
        M = Matroid.from_matrix(A, strict=False)
        for handle, cols in (
            (M, columns_of(A)),
            (M.dual(), columns_of(integer_kernel_basis(A))),
        ):
            got = {elements_of(Z): r for Z, r in handle.cyclic_flats().items()}
            want = {F: brute_rank(cols, F) for F in brute_cyclic_flats(cols)}
            assert got == want, (A.entries, handle.dual_mode)


def test_cyclic_flat_walk_steps_from_its_parent(monkeypatch):
    # each flat's rows are its parent's plus one pivot_step, so no flat is
    # reduced afresh; beyond n = 8 the flats come from closure_cyclic_flats,
    # which agrees with the scan over all subsets on the small corpus
    cases = []
    for _, A in small_corpus():
        cols = columns_of(A)
        flats = {mask_of(F): brute_rank(cols, F) for F in brute_cyclic_flats(cols)}
        assert closure_cyclic_flats(cols) == flats
        cases.append((Matroid.from_matrix(A), flats))
    for A in (cube_matrix(4), TANGENT_QUADRICS_5X20):
        cases.append((Matroid.from_matrix(A), closure_cyclic_flats(columns_of(A))))
    calls = []
    real = matroid_module.gauss_jordan
    monkeypatch.setattr(
        matroid_module, "gauss_jordan", lambda *a: calls.append(a) or real(*a)
    )
    for M, flats in cases:
        assert M.cyclic_flats() == flats, M.A.entries
        # Z is a cyclic flat of M iff E - Z is one of M*, of rank |E - Z| - r(E) + r(Z)
        full = (1 << M.n) - 1
        dual = {full & ~Z: M.n - Z.bit_count() - M.m + r for Z, r in flats.items()}
        assert M.dual().cyclic_flats() == dual, M.A.entries
    assert calls == []


def test_tutte_uniform23():
    T = Matroid.from_matrix(UNIFORM_2_3).tutte_polynomial()
    assert T == {(2, 0): 1, (1, 0): 1, (0, 1): 1}


def test_tutte_against_deletion_contraction():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        assert M.tutte_polynomial() == brute_tutte(columns_of(A)), name


def test_tutte_specializations_and_counts():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        T = M.tutte_polynomial()
        cols = columns_of(A)
        assert tutte_eval(T, 1, 1) == len(M.bases)
        n = M.n
        n_indep = sum(
            1
            for mask in range(1 << n)
            if independent(cols, tuple(i + 1 for i in range(n) if mask >> i & 1))
        )
        n_span = sum(
            1
            for mask in range(1 << n)
            if brute_rank(cols, tuple(i + 1 for i in range(n) if mask >> i & 1)) == M.m
        )
        assert tutte_eval(T, 2, 1) == n_indep, name
        assert tutte_eval(T, 1, 2) == n_span, name
        assert tutte_eval(T, 2, 2) == 2**n, name


def test_tutte_order_independent():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        natural = M.tutte_polynomial()
        # element e of the reversed matrix is element n + 1 - e here
        R = Matroid.from_matrix(IntMat.from_rows(row[::-1] for row in A.entries))
        assert R.tutte_polynomial() == natural, name


def test_tutte_duality_swaps_variables():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        T = M.tutte_polynomial()
        Tdual = M.dual().tutte_polynomial()
        assert Tdual == {(j, i): c for (i, j), c in T.items()}, name

