"""Fan assembly, cones against the paper's local criterion, Bergman comparison."""

import os
import pickle
import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest

from brute import (
    bergman_classes_by_weight,
    build_tree,
    cone_from_tree,
    enumerated_ray_masks,
    expected_ray_supports,
    fan_rays_are_cyclic_flats,
    handle_columns,
    induce_pair,
    interior_witness,
    is_in_local_trop,
    is_in_trop,
    local_trop_point,
    nonneg_combination_exists,
    pair_key,
    rank_of_rows,
)
from conftest import random_fan_matrices, small_corpus, source_pairs
from tropfan import fan as fan_module
from tropfan.data import (
    DEMO_4X7,
    GRAPHIC_3X6,
    TANGENT_CONIC_CUBIC_4X16,
    TANGENT_LINE_CUBIC_4X13,
    TANGENT_LINE_CUBIC_GALE_9X13,
    UNIFORM_2_3,
    cube_matrix,
)
from tropfan.errors import HasColoops, HasLoops, InternalInvariant
from tropfan.exact import IntMat, integer_kernel_basis
from tropfan.fan import (
    ConeArray,
    Fan,
    compare_with_bergman,
    cyclic_bergman_fan,
    fan_counts,
)
from tropfan.matroid import Matroid
from tropfan.util import mask_to_vector


def support(vec):
    return tuple(i + 1 for i, x in enumerate(vec) if x)


def in_cone(fan, ci, v):
    """Whether v lies in maximal cone ci plus the lineality space."""
    rays = [fan.rays[i] for i in fan.maximal_cones[ci]]
    return nonneg_combination_exists(rays, [(1,) * fan.n], v)


def test_graphic_fan_rays_and_cones():
    M = Matroid.from_matrix(GRAPHIC_3X6)
    fan = cyclic_bergman_fan(M)
    assert len(set(fan.maximal_cones)) == len(fan.maximal_cones)
    assert len(fan.maximal_cones) == 7
    assert {support(r) for r in fan.rays} == {
        (1, 2),
        (3, 4),
        (5,),
        (6,),
        (1, 2, 3, 4),
    }
    # the Bergman cone v5 >= v1=v2=v3=v4 <= v6 appears with rays e5, e6
    cone_supports = [
        {support(fan.rays[i]) for i in cone} for cone in fan.maximal_cones
    ]
    assert {(5,), (6,)} in cone_supports
    assert {(1, 2), (1, 2, 3, 4)} in cone_supports
    assert {(3, 4), (1, 2, 3, 4)} in cone_supports


def test_uniform23_fan():
    fan = cyclic_bergman_fan(Matroid.from_matrix(UNIFORM_2_3))
    assert fan.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert sorted(fan.maximal_cones) == [(0,), (1,), (2,)]


def test_cube3_counts():
    M = Matroid.from_matrix(cube_matrix(3))
    fan = cyclic_bergman_fan(M)
    assert len(set(fan.maximal_cones)) == len(fan.maximal_cones)
    assert (len(fan.rays), len(fan.maximal_cones)) == (20, 80)
    assert fan_counts(M) == (20, 80)


def test_fan_equals_public_op_composition():
    cases = [(name, Matroid.from_matrix(A)) for name, A in small_corpus()]
    cases += [(f"random{i}", M) for i, M in enumerate(random_fan_matrices(15, seed=40))]
    cases += [(f"{name} dual", M.dual()) for name, M in cases]
    for name, M in cases:
        fan = cyclic_bergman_fan(M)
        assert len(set(fan.maximal_cones)) == len(fan.maximal_cones), name
        # cone i is the tree cone of the i-th chain of _regressive_pairs over
        # M.bases, which pins the order that source_pairs relies on
        rebuilt = [
            frozenset(cone_from_tree(build_tree(M, pair))) for pair in source_pairs(M)
        ]
        got = [
            frozenset(fan.rays[i] for i in cone) for cone in fan.maximal_cones
        ]
        assert got == rebuilt, name


def test_rays_sorted_lexicographically():
    for name, A in small_corpus():
        fan = cyclic_bergman_fan(Matroid.from_matrix(A))
        assert list(fan.rays) == sorted(fan.rays), name
        assert len(set(fan.rays)) == len(fan.rays), name


def test_simpliciality_exact_rank():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        fan = cyclic_bergman_fan(M)
        ones = (1,) * M.n
        for cone in fan.maximal_cones:
            rows = [fan.rays[i] for i in cone] + [ones]
            assert rank_of_rows(rows) == M.m, name


def test_dual_mode_fan_matches_kernel_fan():
    cases = [A for _, A in small_corpus() if A.rows < A.cols - 1]
    cases += [M.A for M in random_fan_matrices(8, seed=71) if M.m < M.n - 1]
    for A in cases:
        M = Matroid.from_matrix(A, strict=False)
        dual_fan = None
        direct_fan = None
        D = M.dual()
        K = Matroid.from_matrix(integer_kernel_basis(A), strict=False)
        if D.loops or D.coloops:
            continue
        dual_fan = cyclic_bergman_fan(D)
        direct_fan = cyclic_bergman_fan(K)
        assert dual_fan.rays == direct_fan.rays
        assert dual_fan.maximal_cones == direct_fan.maximal_cones


def test_fan_refuses_loops_and_coloops():
    M = Matroid.from_matrix([[1, 0, 1], [0, 0, 1]], strict=False)
    for fan_or_counts in (cyclic_bergman_fan, fan_counts):
        with pytest.raises(HasLoops):
            fan_or_counts(M)
    M = Matroid.from_matrix([[1, 0, 1], [0, 1, 0]], strict=False)
    for fan_or_counts in (cyclic_bergman_fan, fan_counts):
        with pytest.raises(HasColoops):
            fan_or_counts(M)


def test_threads_output_identical():
    M = Matroid.from_matrix(cube_matrix(3))
    seq = cyclic_bergman_fan(M)
    par = cyclic_bergman_fan(M, threads=2)
    assert seq == par
    assert fan_counts(M, threads=2) == fan_counts(M) == (20, 80)


def test_sharded_threads_match_sequential_and_list_no_bases():
    for A in (cube_matrix(4), TANGENT_LINE_CUBIC_4X13):
        seq = cyclic_bergman_fan(Matroid.from_matrix(A).dual())
        M = Matroid.from_matrix(A).dual()
        assert cyclic_bergman_fan(M, threads=2) == seq
        assert fan_counts(M, threads=2) == (len(seq.rays), len(seq.maximal_cones))
        # each worker walks its own run of prefixes; the parent lists no bases
        assert "bases" not in vars(M)


def test_more_shards_than_top_level_subtrees():
    # U(2,3) has three top-level prefixes and the rank-1 U(1,3) three; two
    # workers ask for eight runs
    for A in (UNIFORM_2_3, [[1, 2, -1]]):
        M = Matroid.from_matrix(A)
        for H in (M, M.dual()):
            runs = H.basis_shards(8)
            assert len(runs) == 3 and all(runs)
            assert [B for run in runs for B in H.enumerate_bases(run)] == list(H.bases)
        assert cyclic_bergman_fan(M, threads=2) == cyclic_bergman_fan(M)
        assert fan_counts(M, threads=2) == fan_counts(M)


def test_shards_are_balanced_by_subtree_size():
    M = Matroid.from_matrix(cube_matrix(4)).dual()
    sizes = [sum(1 for _ in M.enumerate_bases(run)) for run in M.basis_shards(4)]
    assert sum(sizes) == len(M.bases) and len(sizes) == 4
    assert max(sizes) < 2 * min(sizes)


def test_worker_reduces_no_basis_afresh(monkeypatch):
    M = Matroid.from_matrix(TANGENT_LINE_CUBIC_4X13).dual()
    fan = cyclic_bergman_fan(M)
    rays, index = fan_module._ray_index(M)
    typecode = fan_module._typecode(len(rays))
    calls = []  # copies of A: one per prefix the walks start from, none per basis
    real = IntMat.row_lists
    monkeypatch.setattr(IntMat, "row_lists", lambda A: calls.append(A) or real(A))
    data, count, runs = array(typecode), 0, M.basis_shards(3)
    for run in runs:
        block, k = fan_module._fan_worker((M.A.entries, True, run, index, typecode))
        data += block
        count += k
    assert len(calls) == sum(map(len, runs))
    assert ConeArray(data, M.rank - 1, count) == fan.maximal_cones


def test_threads_are_capped_at_the_cpu_count(monkeypatch):
    # an in-process stand-in for the pool: no worker process is started
    seen, chunks = [], []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            payloads = list(payloads)
            chunks.append(len(payloads))
            return map(fn, payloads)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    M = Matroid.from_matrix(cube_matrix(3))
    assert cyclic_bergman_fan(M, threads=10**6) == cyclic_bergman_fan(M)
    assert fan_counts(M, threads=10**6) == (20, 80)
    assert seen and all(1 <= k <= os.cpu_count() for k in seen)
    assert all(k <= 4 * os.cpu_count() for k in chunks)


def test_precomputed_rays_equal_enumerated_masks():
    cases = [(name, Matroid.from_matrix(A)) for name, A in small_corpus()]
    cases += [(f"random{i}", M) for i, M in enumerate(random_fan_matrices(15, seed=40))]
    cases += [
        ("cube4", Matroid.from_matrix(cube_matrix(4))),
        ("line/cubic", Matroid.from_matrix(TANGENT_LINE_CUBIC_4X13)),
        ("conic/cubic", Matroid.from_matrix(TANGENT_CONIC_CUBIC_4X16)),
        ("line/cubic gale", Matroid.from_matrix(TANGENT_LINE_CUBIC_GALE_9X13)),
    ]
    cases += [(f"{name} dual", M.dual()) for name, M in cases]
    for name, M in cases:
        rays, index = fan_module._ray_index(M)
        assert set(index) == enumerated_ray_masks(M), name
        assert sorted(index.values()) == list(range(len(rays))), name
        for mask, i in index.items():
            assert rays[i] == mask_to_vector(mask, M.n), name
        assert list(rays) == sorted(rays), name


def test_rank_one_fans_have_one_empty_cone():
    handles = [
        Matroid.from_matrix([[1, 2, 3]]),
        Matroid.from_matrix([[1, 1, 1, 1]]),
        Matroid.from_matrix(UNIFORM_2_3).dual(),
        Matroid.from_matrix([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]).dual(),
    ]
    for M in handles:
        fan = cyclic_bergman_fan(M)
        assert fan.rays == ()
        assert len(fan.maximal_cones) == 1
        assert tuple(fan.maximal_cones) == ((),)
        assert fan.maximal_cones[0] == fan.maximal_cones[-1] == ()
        assert fan_counts(M) == (0, 1)


def test_cone_array_is_a_sequence_of_sorted_tuples():
    M = Matroid.from_matrix(cube_matrix(3))
    fan = cyclic_bergman_fan(M)
    cones = list(fan.maximal_cones)
    assert cones == [fan.maximal_cones[i] for i in range(80)]
    assert all(type(c) is tuple and list(c) == sorted(c) for c in cones)
    assert fan.maximal_cones[-1] == cones[-1]
    assert fan.maximal_cones.index(cones[7]) == 7 and cones[7] in fan.maximal_cones
    with pytest.raises(IndexError):
        fan.maximal_cones[80]
    # one read-only view of the packed ray indices; no slices of cones
    flat = fan.maximal_cones.flat
    assert flat.readonly and list(flat) == [i for cone in cones for i in cone]
    with pytest.raises(TypeError):
        fan.maximal_cones[1:3]
    assert fan == cyclic_bergman_fan(M) == pickle.loads(pickle.dumps(fan))
    assert ConeArray(array("B", [0, 1]), 1, 2) != ConeArray(array("B", [1, 0]), 1, 2)
    assert ConeArray(array("B"), 0, 1) != ConeArray(array("B"), 0, 2)


def test_spilled_cones_read_back_as_the_stored_blocks(tmp_path):
    # a spilled fan holds only where its cones start and their count; its
    # blocks are the stored fan's, in whole cones, sequential or from worker
    # processes, also for rank 1, after leading bytes, and with the stale
    # bytes of a larger fan's spill after them
    handles = [Matroid.from_matrix(cube_matrix(3)), Matroid.from_matrix(UNIFORM_2_3).dual()]
    larger = bytes(cyclic_bergman_fan(handles[0]).maximal_cones.flat)
    cases = [(handles[0], 0, b"", b""), (handles[0], 2, b"", b""), (handles[0], 0, b"header!", b"")]
    cases += [(Matroid.from_matrix(GRAPHIC_3X6), 0, b"", larger), (handles[1], 0, b"", b"")]
    for M, threads, lead, stale in cases:
        fan = cyclic_bergman_fan(M)
        with open(tmp_path / "spill", "w+b") as spill:
            spill.write(lead + stale)
            spill.seek(len(lead))
            spilled = cyclic_bergman_fan(M, threads=threads, spill=spill)
            assert spilled.rays == fan.rays and len(spilled.maximal_cones) == len(fan.maximal_cones)
            for size in (1, 7, 4096):
                want = [list(block) for block in fan.maximal_cones.blocks(size)]
                assert [list(block) for block in spilled.maximal_cones.blocks(size)] == want
            for size in (0, -1):  # a block holds at least one cone
                for cones in (fan.maximal_cones, spilled.maximal_cones):
                    with pytest.raises(ValueError, match="at least 1"):
                        next(cones.blocks(size))
            assert spill.tell() == len(lead) + fan.maximal_cones.flat.nbytes
    assert sum(map(len, fan.maximal_cones.blocks(3))) == 0 and len(fan.maximal_cones) == 1
    cube3 = cyclic_bergman_fan(handles[0]).maximal_cones
    assert [len(block) for block in cube3.blocks(32)] == [32 * 3] * 2 + [16 * 3]


def test_cone_ray_outside_the_precomputed_set_is_an_internal_invariant(monkeypatch):
    # a singleton ray is checked by the leftover mask test, any other ray by
    # the spine lookup, so each is dropped in turn
    real = fan_module._ray_index
    M = Matroid.from_matrix(cube_matrix(3))
    for singleton, message in ((True, "are not rays"), (False, "not a cyclic flat")):

        def drop_one_ray(M):
            rays, index = real(M)
            index = dict(index)
            index.pop(next(m for m in index if (m & (m - 1) == 0) == singleton))
            return rays, index

        monkeypatch.setattr(fan_module, "_ray_index", drop_one_ray)
        for threads in (0, 1):
            with pytest.raises(InternalInvariant, match=message):
                cyclic_bergman_fan(M, threads=threads)
            with pytest.raises(InternalInvariant, match=message):
                fan_counts(M, threads=threads)


def test_cube4_dual_fan_memory_per_cone():
    # the parent, which kept every cone as Python tuples twice, peaked at
    # about 255 bytes per cone here; one packed array needs about 10
    M = Matroid.from_matrix(cube_matrix(4)).dual()
    tracemalloc.start()
    try:
        fan = cyclic_bergman_fan(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fan.maximal_cones) == 59608
    assert peak <= 40 * 59608


def test_ray_characterization_on_corpus():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        fan = cyclic_bergman_fan(M)
        assert fan_rays_are_cyclic_flats(fan, M), name


def test_cube3_has_20_admissible_flats():
    M = Matroid.from_matrix(cube_matrix(3))
    assert len(expected_ray_supports(handle_columns(M))) == 20


def test_is_in_trop_examples():
    M = Matroid.from_matrix(GRAPHIC_3X6)
    assert is_in_trop(M, (0, 0, 1, 1, 0, 2))
    assert is_in_trop(M, (1, 1, 1, 1, 1, 1))
    assert not is_in_trop(M, (0, 1, 1, 1, 1, 1))
    U = Matroid.from_matrix(UNIFORM_2_3)
    assert is_in_trop(U, (1, 0, 0))
    assert not is_in_trop(U, (-1, 0, 0))


def test_is_in_local_trop_demo():
    M = Matroid.from_matrix(DEMO_4X7)
    assert is_in_local_trop(M, (1, 2, 3, 4), (0, 5, 2, 3, 3, 0, 0))
    assert is_in_local_trop(M, (1, 2, 3, 4), (1, 1, 1, 1, 1, 1, 1))
    # {5, 6, 7} outweighs the basis
    assert not is_in_local_trop(M, (1, 2, 3, 4), (0, 0, 0, 0, 9, 9, 9))


def test_local_agrees_with_global_on_max_weight_points():
    rng = random.Random(17)
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        checked = 0
        while checked < 1000:
            v = tuple(rng.randint(-4, 4) for _ in range(M.n))
            weights = [(sum(v[i - 1] for i in B), B) for B in M.bases]
            top = max(w for w, _ in weights)
            B = next(B for w, B in weights if w == top)
            assert is_in_local_trop(M, B, v) == is_in_trop(M, v), (name, v, B)
            checked += 1


def test_local_trop_point_demo():
    M = Matroid.from_matrix(DEMO_4X7)
    assert local_trop_point(M, (1, 2, 3, 4), (0, 5, 2, 3)) == (0, 5, 2, 3, 3, 0, 0)
    assert local_trop_point(M, (1, 2, 3, 4), (7, 7, 7, 7)) == (7,) * 7


def test_local_trop_point_lands_in_trop():
    rng = random.Random(29)
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        bases = M.bases
        for _ in range(1000):
            B = bases[rng.randrange(len(bases))]
            x = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in B]
            v = local_trop_point(M, B, x)
            assert is_in_trop(M, v), (name, B, x)
            assert is_in_local_trop(M, B, v), (name, B, x)


def test_induce_pair_demo():
    M = Matroid.from_matrix(DEMO_4X7)
    v = (0, 5, 2, 3, 3, 0, 0)
    pair = induce_pair(M, (1, 2, 3, 4), v)  # the order 1, 3, 4, 2
    assert dict(pair.pref) == {5: 4, 6: 1, 7: 1}
    assert pair.order == (1, 4)


def test_induce_pair_forced_constant():
    M = Matroid.from_matrix(UNIFORM_2_3)
    pair = induce_pair(M, (1, 2), (0, 1, 0))
    assert dict(pair.pref) == {3: 1}
    assert pair.order == (1,)


def test_round_trip_witness_reinduces_source_pair():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        fan = cyclic_bergman_fan(M)
        pairs = source_pairs(M)
        assert len(pairs) == len(fan.maximal_cones), name
        for ci, pair in enumerate(pairs):
            v = interior_witness(fan, ci)
            assert is_in_local_trop(M, pair.basis, v), (name, ci)
            assert pair_key(induce_pair(M, pair.basis, v)) == pair_key(pair), (name, ci)


def test_no_duplicate_cones_across_bases():
    for name, A in small_corpus():
        fan = cyclic_bergman_fan(Matroid.from_matrix(A))
        assert len(set(fan.maximal_cones)) == len(fan.maximal_cones), name


def test_interior_witness_membership_and_trop():
    rng = random.Random(41)
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        fan = cyclic_bergman_fan(M)
        for ci in range(len(fan.maximal_cones)):
            v = interior_witness(fan, ci)
            assert is_in_trop(M, v), (name, ci)
            assert in_cone(fan, ci, v), (name, ci)
            for _ in range(50):
                combo = [0] * M.n
                for i in fan.maximal_cones[ci]:
                    c = rng.randint(0, 5)
                    for j, x in enumerate(fan.rays[i]):
                        combo[j] += c * x
                assert is_in_trop(M, tuple(combo)), (name, ci)


def test_random_trop_points_covered_by_fan():
    rng = random.Random(53)
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        fan = cyclic_bergman_fan(M)
        cone_set = set(fan.maximal_cones)
        bases = M.bases
        for _ in range(1000):
            B = bases[rng.randrange(len(bases))]
            x = [rng.randint(-6, 6) for _ in B]
            v = local_trop_point(M, B, x)
            # lexicographically first basis of maximal weight owns the point
            weights = [(sum(v[i - 1] for i in Bb), Bb) for Bb in bases]
            top = max(w for w, _ in weights)
            B0 = next(Bb for w, Bb in weights if w == top)
            assert is_in_local_trop(M, B0, v), (name, v)
            pair = induce_pair(M, B0, v)
            rays = cone_from_tree(build_tree(M, pair))
            idxs = tuple(sorted(fan.rays.index(r) for r in rays))
            assert idxs in cone_set, (name, v)
            ci = fan.maximal_cones.index(idxs)
            assert in_cone(fan, ci, v), (name, v)


def test_compare_graphic():
    M = Matroid.from_matrix(GRAPHIC_3X6)
    fan = cyclic_bergman_fan(M)
    classes = compare_with_bergman(fan, M)
    assert len(classes) == 6
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 1, 1, 1, 1, 2]
    merged = next(c for c in classes if len(c) == 2)
    shared = set(fan.maximal_cones[merged[0]]) & set(fan.maximal_cones[merged[1]])
    assert len(shared) == 1
    assert support(fan.rays[shared.pop()]) == (1, 2, 3, 4)


def test_compare_cube3_trivial_partition():
    M = Matroid.from_matrix(cube_matrix(3))
    fan = cyclic_bergman_fan(M)
    classes = compare_with_bergman(fan, M)
    assert len(classes) == 80
    assert all(len(c) == 1 for c in classes)


def test_compare_classes_partition_all_cones():
    for name, A in small_corpus():
        M = Matroid.from_matrix(A)
        fan = cyclic_bergman_fan(M)
        classes = compare_with_bergman(fan, M)
        flat = sorted(i for cls in classes for i in cls)
        assert flat == list(range(len(fan.maximal_cones))), name


def test_compare_with_bergman_matches_weight_oracle():
    cases = [(name, Matroid.from_matrix(A)) for name, A in small_corpus()]
    cases += [(f"random{i}", M) for i, M in enumerate(random_fan_matrices(15, seed=40))]
    cases += [
        ("cube4", Matroid.from_matrix(cube_matrix(4))),
        ("line/cubic", Matroid.from_matrix(TANGENT_LINE_CUBIC_4X13)),
        ("conic/cubic", Matroid.from_matrix(TANGENT_CONIC_CUBIC_4X16)),
    ]
    cases += [(f"{name} dual", M.dual()) for name, M in cases]
    cases += [
        ("U(1,3)", Matroid.from_matrix([[1, 2, 3]])),
        ("U(2,3) dual", Matroid.from_matrix(UNIFORM_2_3).dual()),
    ]
    for name, M in cases:
        fan = cyclic_bergman_fan(M)
        assert compare_with_bergman(fan, M) == bergman_classes_by_weight(fan, M), name


def test_colliding_key_hashes_never_merge_classes(monkeypatch):
    cases = [
        Matroid.from_matrix(GRAPHIC_3X6),
        Matroid.from_matrix(cube_matrix(3)),
        Matroid.from_matrix(TANGENT_LINE_CUBIC_4X13),
    ]
    fans = [cyclic_bergman_fan(M) for M in cases]
    want = [compare_with_bergman(fan, M) for fan, M in zip(fans, cases)]
    # every key hashes alike, so each class is found by comparing keys
    monkeypatch.setattr(fan_module, "hash", lambda key: 0, raising=False)
    for fan, M, classes in zip(fans, cases, want):
        assert compare_with_bergman(fan, M) == classes


def test_cone_rays_without_a_common_tight_basis_are_an_internal_invariant():
    # every basis of U(2,3) misses one of the three singleton rays
    M = Matroid.from_matrix(UNIFORM_2_3)
    rays = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    fan = Fan(3, rays, ConeArray(array("B", [0, 1, 2]), 3, 1))
    with pytest.raises(InternalInvariant):
        compare_with_bergman(fan, M)
