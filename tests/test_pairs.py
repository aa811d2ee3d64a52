"""Compatible-pair enumeration, cone rows, and the caterpillar-tree cone oracle."""

from array import array

import pytest

from brute import (
    _cone_masks,
    brute_flats,
    brute_regressive_pairs,
    build_tree,
    chain_pair,
    columns_of,
    cone_from_tree,
    literal_pairs,
    pair_key,
)
from conftest import CHAIN_3X6, FORCED_2X4, random_fan_matrices, small_corpus
from tropfan import fan as fan_module
from tropfan.data import DEMO_4X7, UNIFORM_2_3, cube_matrix
from tropfan.errors import InternalInvariant
from tropfan.exact import IntMat
from tropfan.fan import ConeArray, _regressive_pairs, _typecode
from tropfan.matroid import Matroid
from tropfan.util import elements_of, mask_of


def pairs_over(M, B):
    """The pairs over basis B, in the order the recursion yields their chains."""
    return [chain_pair(B, c) for c in _regressive_pairs(M.fundamental_circuit_masks(B))]


def pairs_of(M, B):
    return {pair_key(p) for p in pairs_over(M, B)}


def test_demo_pair_is_enumerated():
    M = Matroid.from_matrix(DEMO_4X7)
    got = pairs_of(M, (1, 2, 3, 4))
    assert (((5, 4), (6, 1), (7, 1)), (1, 4)) in got


def test_uniform23_pair_counts():
    M = Matroid.from_matrix(UNIFORM_2_3)
    assert pairs_of(M, (1, 2)) == {(((3, 1),), (1,)), (((3, 2),), (2,))}
    assert pairs_of(M, (1, 3)) == {(((2, 1),), (1,))}
    # p(1) < 1 is impossible, so this basis carries no regressive pair
    assert pairs_of(M, (2, 3)) == set()


def test_cube3_total_pair_count():
    M = Matroid.from_matrix(cube_matrix(3))
    assert sum(len(pairs_of(M, B)) for B in M.bases) == 80


def test_enumeration_matches_definition_and_literal_loops():
    cases = [(name, A) for name, A in small_corpus()]
    cases += [(f"random{i}", M.A) for i, M in enumerate(random_fan_matrices(15, seed=40))]
    for name, A in cases:
        M = Matroid.from_matrix(A)
        cols = columns_of(A)
        for B in M.bases:
            shipped = pairs_of(M, B)
            assert shipped == brute_regressive_pairs(cols, B), (name, B)
            assert shipped == literal_pairs(cols, B), (name, B)


def test_chains_are_slots_of_blocks_and_covers():
    # each slot is (block, cover): block = {b} + p^-1(b), cover = the union
    # of F_k over the non-basis members k of the block
    matroids = [Matroid.from_matrix(A) for _, A in small_corpus()]
    matroids += random_fan_matrices(15, seed=40)
    matroids += [M.dual() for M in matroids]
    for M in matroids:
        for B in M.bases:
            bmask = mask_of(B)
            fmask = M.fundamental_circuit_masks(B)
            nonbasis = mask_of(fmask)
            for chain in _regressive_pairs(fmask):
                seen = image = 0
                for block, cover in chain:
                    assert not block & seen, (B, chain)
                    seen |= block
                    low = block & -block
                    image |= low
                    assert low & bmask and not block & bmask & ~low, (B, chain)
                    want = 0
                    for k in elements_of(block & ~low):
                        want |= fmask[k]
                    assert cover == want, (B, chain)
                assert seen == image | nonbasis, (B, chain)


def cone_rows(monkeypatch, n, basis, chain, index):
    """The rows _basis_blocks builds when the one chain over basis is given."""
    monkeypatch.setattr(fan_module, "_regressive_pairs", lambda fmask: [chain])
    ((out, count),) = fan_module._basis_blocks([(basis, {})], n, len(basis) - 1, index, "B")
    assert count == 1
    return list(out)


def test_cone_masks_reject_a_basis_element_attached_to_no_block(monkeypatch):
    # basis {1, 2, 3}; the one slot {1, 4} covers only 1, so 2 and 3 hang
    # off nothing, as they would for a coloop
    with pytest.raises(InternalInvariant):
        _cone_masks(0b111, ((0b1001, 0b001),))
    index = {1 << i: i for i in range(4)}
    with pytest.raises(InternalInvariant, match="coloops"):
        cone_rows(monkeypatch, 4, (1, 2, 3), ((0b1001, 0b001),), index)


def test_cone_masks_reject_a_cone_without_rank_minus_one_rays(monkeypatch):
    # basis {1, 2}; a third slot {5} adds a spine ray, giving 2 rays at rank 2
    chain = ((0b00101, 0b11), (0b01010, 0b10), (0b10000, 0))
    with pytest.raises(InternalInvariant):
        _cone_masks(0b11, chain)
    # without it the same slots give the one ray {2, 4}
    assert _cone_masks(0b11, chain[:2]) == [0b01010]
    # the row builder, with both spine up-sets in the index so that only
    # the ray count is wrong
    index = {0b01010: 0, 0b10000: 1, 0b11010: 2}
    with pytest.raises(InternalInvariant, match="rank-1 rays"):
        cone_rows(monkeypatch, 5, (1, 2), chain, index)
    assert cone_rows(monkeypatch, 5, (1, 2), chain[:2], index) == [0]


def test_cone_rows_equal_the_mask_oracle():
    # a repeated column makes a parallel class: its singletons are no rays
    parallel = IntMat.from_rows(
        [
            [1, 0, 0, 0, 0, 3, 1, 1],
            [0, 1, 0, 0, 1, 1, 2, 2],
            [0, 0, 1, 0, 0, 0, 1, 1],
            [0, 0, 0, 1, 2, 1, 0, 0],
        ]
    )
    matroids = [Matroid.from_matrix(A) for _, A in small_corpus()]
    matroids += random_fan_matrices(15, seed=40)
    matroids.append(Matroid.from_matrix(parallel))
    matroids += [M.dual() for M in matroids]
    for M in matroids:
        rays, index = fan_module._ray_index(M)
        want = [
            tuple(sorted(index[mask] for mask in _cone_masks(mask_of(B), chain)))
            for B in M.bases
            for chain in _regressive_pairs(M.fundamental_circuit_masks(B))
        ]
        typecode = _typecode(len(rays))
        pairs = [(B, M.fundamental_circuit_masks(B)) for B in M.bases]
        out = array(typecode)
        blocks = fan_module._basis_blocks(pairs, M.n, M.rank - 1, index, typecode)
        count = fan_module._drain(blocks, out.extend)
        assert list(ConeArray(out, M.rank - 1, count)) == want, M.A.entries
        blocks = fan_module._basis_blocks(pairs, M.n, M.rank - 1, index, None)
        assert fan_module._drain(blocks) == count
    M = Matroid.from_matrix(parallel)
    assert not {1 << 6, 1 << 7} & set(fan_module._ray_index(M)[1])


def test_chain_matrix_rejects_incompatible_order():
    # Over B = {1,2,3}: F_4 = {1}, F_5 = {1,2}, F_6 = {2,3}.  Placing the new
    # element 2 above the already-imaged 1 at k = 5 would contradict p(5)
    # being order-minimal in F_5, so (p(5)=2, order 1<2) must not appear.
    M = Matroid.from_matrix(CHAIN_3X6)
    got = pairs_of(M, (1, 2, 3))
    assert got == brute_regressive_pairs(columns_of(CHAIN_3X6), (1, 2, 3))
    bad = (((4, 1), (5, 2), (6, 2)), (1, 2))
    assert bad not in got
    assert (((4, 1), (5, 2), (6, 2)), (2, 1)) in got


def test_pairs_are_regressive_and_orders_cover_images():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        for B in M.bases:
            for pair in pairs_over(M, B):
                pm = dict(pair.pref)
                assert all(pm[k] < k for k in pm), name
                assert sorted(pair.order) == sorted(set(pm.values())), name


def test_demo_tree_structure():
    M = Matroid.from_matrix(DEMO_4X7)
    pair = next(
        p
        for p in pairs_over(M, (1, 2, 3, 4))
        if pair_key(p) == (((5, 4), (6, 1), (7, 1)), (1, 4))
    )
    tree = build_tree(M, pair)
    assert set(tree.blocks) == {(1, 6, 7), (2,), (3,), (4, 5)}
    assert tree.spine == (1, 4)
    assert dict(tree.leaf_parent) == {3: 1, 2: 4}


def test_demo_cone_rays():
    M = Matroid.from_matrix(DEMO_4X7)
    pair = next(
        p
        for p in pairs_over(M, (1, 2, 3, 4))
        if pair_key(p) == (((5, 4), (6, 1), (7, 1)), (1, 4))
    )
    rays = set(cone_from_tree(build_tree(M, pair)))
    assert rays == {
        (0, 1, 0, 0, 0, 0, 0),
        (0, 1, 0, 1, 1, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
    }


def test_full_image_gives_pure_path():
    M = Matroid.from_matrix(FORCED_2X4)
    for pair in pairs_over(M, (1, 2)):
        tree = build_tree(M, pair)
        assert tree.leaf_parent == ()
        assert len(tree.spine) == 2


def test_uniform23_tree_and_cone():
    M = Matroid.from_matrix(UNIFORM_2_3)
    pair = next(p for p in pairs_over(M, (1, 2)) if dict(p.pref) == {3: 1})
    tree = build_tree(M, pair)
    assert set(tree.blocks) == {(1, 3), (2,)}
    assert tree.spine == (1,)
    assert dict(tree.leaf_parent) == {2: 1}
    # the cone encodes v1 = v3 <= v2
    assert cone_from_tree(tree) == ((0, 1, 0),)


def test_cone_rays_count_and_supports():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        flats = brute_flats(columns_of(A))
        for B in M.bases:
            for pair in pairs_over(M, B):
                rays = cone_from_tree(build_tree(M, pair))
                assert len(rays) == M.m - 1, name
                for ray in rays:
                    support = tuple(i + 1 for i, x in enumerate(ray) if x)
                    assert support in flats, (name, support)
