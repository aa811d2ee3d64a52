"""Ray shooting for Newton-polytope vertices."""

import hashlib
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import tropfan
from brute import codim1_oracle, eq2_determinant, scalar_ray_hits
from conftest import write_matrix_file
from tropfan.data import GRAPHIC_3X6, TANGENT_LINE_CUBIC_4X13, cube_matrix
from tropfan.discriminant import (
    _cone_hits,
    _dot_products,
    _inner_products,
    _pack_cones,
    _packed_products,
    _shoot,
    _Unresolved,
    random_vertices,
    setup,
    shoot_vertex,
)
from tropfan.errors import (
    DegenerateDual,
    LatticeNotSpanned,
    NoAllOnesRow,
    RankError,
    WrongSize,
)
from tropfan.exact import IntMat, det
from tropfan.util import dot


@pytest.fixture(scope="module")
def line_cubic_problem():
    return setup(TANGENT_LINE_CUBIC_4X13)


def test_setup_counts(line_cubic_problem):
    prob = line_cubic_problem
    assert len(prob.fan.maximal_cones) == 2466
    assert len(prob.codim1_cones) == 852
    assert prob.lattice_spanned
    assert all(len(c.qrows) == prob.n - prob.m - 1 for c in prob.codim1_cones)


@pytest.mark.parametrize(
    "A",
    [TANGENT_LINE_CUBIC_4X13, GRAPHIC_3X6, cube_matrix(3)],
    ids=["line_cubic", "graphic_3x6", "cube3"],
)
def test_codim1_walk_matches_per_cone_oracle(A):
    prob = setup(A)
    oracle = codim1_oracle(prob)
    assert sorted((c.cone_index, c.normal) for c in prob.codim1_cones) == [o[:2] for o in oracle]
    # listed in the walk's order: strictly increasing ray tuples
    keys = [prob.fan.maximal_cones[c.cone_index] for c in prob.codim1_cones]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # Q may be another left inverse than the oracle's; both must satisfy these
    ours = [(c.cone_index, c.qrows, c.denom) for c in prob.codim1_cones]
    theirs = [(ci, qrows, denom) for ci, _, qrows, denom in oracle]
    for ci, qrows, denom in ours + theirs:
        rays = [prob.fan.rays[i] for i in prob.fan.maximal_cones[ci]]
        assert len(qrows) == len(rays) and denom != 0
        for k, ray in enumerate(rays):
            assert [dot(q, ray) for q in qrows] == [denom * (j == k) for j in range(len(rays))]
        for row in prob.A.entries:
            assert not any(dot(q, row) for q in qrows)


def test_setup_rejects_rank_deficient():
    with pytest.raises(RankError):
        setup(IntMat.from_rows([[1, 1, 0, 0], [2, 2, 0, 0]]))


def test_setup_rejects_degenerate_dual():
    with pytest.raises(DegenerateDual):
        setup(IntMat.from_rows([[1, 1]]))


def test_setup_rejects_missing_all_ones_row():
    with pytest.raises(NoAllOnesRow):
        setup(IntMat.from_rows([[1, 0, 0, 0], [0, 1, 2, 3]]))


def test_setup_flags_unspanned_lattice_without_warning():
    A = IntMat.from_rows([[1, 1, 1, 1], [0, 2, 0, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prob = setup(A)
    assert not prob.lattice_spanned
    with pytest.raises(LatticeNotSpanned):
        shoot_vertex(prob, (1, 2, 3, 4))


#: Maximal minors with gcd 3, so det(A A^T) / det [A; Aperp] = -2/3.
UNSPANNED_3X7 = [[1] * 7, [-1, 3, 2, 3, 2, 2, 1], [-3, 3, 0, 3, -2, 2, -3]]
#: Spanned, but `integer_kernel_basis` is not saturated: that ratio is 1/4913.
UNSATURATED_3X7 = [[1] * 7, [-3, 1, -2, -3, 2, -2, 0], [-1, -2, 3, 3, 0, -2, 3]]


def test_determinant_factors_through_normal(line_cubic_problem):
    # setup reads kappa off the cone walk; the direct determinant is its oracle
    prob = line_cubic_problem
    for cone in prob.codim1_cones:
        assert cone.support == tuple(i for i, g in enumerate(cone.normal) if g)
        i0 = cone.support[0]
        assert cone.kappa * abs(cone.normal[i0]) == eq2_determinant(prob, cone, i0)
    for cone in random.Random(2).sample(prob.codim1_cones, 12):
        for i in range(prob.n):
            assert eq2_determinant(prob, cone, i) == cone.kappa * abs(cone.normal[i])
    for A, ratio, spanned in (
        (UNSPANNED_3X7, Fraction(-2, 3), False),
        (UNSATURATED_3X7, Fraction(1, 4913), True),
    ):
        other = setup(A)
        assert other.lattice_spanned == spanned
        rows = other.A.entries
        gram = det(IntMat.from_rows([[dot(a, b) for b in rows] for a in rows]))
        assert Fraction(gram, det(IntMat.from_rows(rows + other.Aperp.entries))) == ratio
        assert other.codim1_cones
        for cone in other.codim1_cones:
            for i in range(other.n):
                assert eq2_determinant(other, cone, i) == cone.kappa * abs(cone.normal[i])
    with pytest.raises(LatticeNotSpanned):
        shoot_vertex(setup(UNSPANNED_3X7), (1, 2, 3, 4, 5, 6, 7))


def test_threaded_setup_lists_the_same_cones(line_cubic_problem):
    threaded = setup(TANGENT_LINE_CUBIC_4X13, threads=2)
    # frozen cones compare every field, kappa and support included
    assert threaded.codim1_cones == line_cubic_problem.codim1_cones


def test_normals_orthogonal(line_cubic_problem):
    prob = line_cubic_problem
    for cone in prob.codim1_cones[:50]:
        for row in prob.A.entries:
            assert dot(cone.normal, row) == 0
        for i in prob.fan.maximal_cones[cone.cone_index]:
            assert dot(cone.normal, prob.fan.rays[i]) == 0


def test_a_degree_constant_and_degree_sum(line_cubic_problem):
    prob = line_cubic_problem
    vs = random_vertices(prob, 10, seed=4)
    degrees = {v.a_degree for v in vs}
    assert len(degrees) == 1
    a_degree = degrees.pop()
    # rows 1 and 2 of A sum to the all-ones vector, so the total degree splits
    assert all(sum(v.u) == a_degree[0] + a_degree[1] for v in vs)
    assert all(x >= 0 for v in vs for x in v.u)


def test_seed1_stream_is_pinned(line_cubic_problem):
    """The `--random 100 --seed 1` output on line/cubic, byte for byte."""
    vs = random_vertices(line_cubic_problem, 100, seed=1)
    lines = ["A-DEGREE " + " ".join(map(str, vs[0].a_degree))]
    lines += [" ".join(map(str, v.u)) for v in vs]
    text = "\n".join(lines) + "\n"
    assert vs[0].a_degree == (12, 10, -6, -6)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "4ff7da40a70f3ff35f4e5723e740bc53a3413950edddf9790b40a00188330614"
    )


def test_cross_objective_minimality(line_cubic_problem):
    prob = line_cubic_problem
    vs = random_vertices(prob, 12, seed=9)
    for a in vs:
        for b in vs:
            assert dot(a.u, a.w) <= dot(b.u, a.w)


def test_vertex_determinism(line_cubic_problem):
    prob = line_cubic_problem
    w = tuple(random.Random(77).randint(-(10**6), 10**6) for _ in range(prob.n))
    assert shoot_vertex(prob, w, seed=5).u == shoot_vertex(prob, w, seed=5).u
    assert random_vertices(prob, 6, seed=3) == random_vertices(prob, 6, seed=3)


def test_perturbed_agrees_with_clean_run(line_cubic_problem):
    prob = line_cubic_problem
    rng = random.Random(123)
    w = tuple(rng.randint(-(10**6), 10**6) for _ in range(prob.n))
    clean = _shoot(prob, w, None)
    r = tuple(rng.randint(-(10**6), 10**6) for _ in range(prob.n))
    assert _shoot(prob, w, r) == clean


@pytest.mark.parametrize("x", [0.9, 3.0, Fraction(7, 2), Fraction(4, 1), "5"])
def test_shoot_vertex_rejects_non_integer_objectives(line_cubic_problem, x):
    # int() would truncate 0.9 to 0 and shoot the zero objective's vertex
    with pytest.raises(TypeError):
        shoot_vertex(line_cubic_problem, (x,) * line_cubic_problem.n)
    with pytest.raises(TypeError):
        shoot_vertex(line_cubic_problem, (1,) * (line_cubic_problem.n - 1) + (x,))


def test_shoot_vertex_rejects_objectives_of_the_wrong_length(line_cubic_problem):
    # zip() would shoot a short w padded with zeros and drop a long w's tail
    w = tuple(range(1, line_cubic_problem.n + 1))
    for bad in (w[:5], w + (14, 15)):
        with pytest.raises(WrongSize):
            shoot_vertex(line_cubic_problem, bad)


def test_nongeneric_objective_resolved_by_perturbation(line_cubic_problem):
    prob = line_cubic_problem
    v = shoot_vertex(prob, (0,) * prob.n, seed=11)
    assert v.perturbed
    assert v.a_degree == prob.a_degree
    again = shoot_vertex(prob, (0,) * prob.n, seed=11)
    assert v.u == again.u


def test_random_vertices_empty_and_duplicates(line_cubic_problem):
    prob = line_cubic_problem
    assert random_vertices(prob, 0, seed=1) == []
    vs = random_vertices(prob, 20, seed=8)
    seen = {}
    for idx, v in enumerate(vs):
        if v.u in seen:
            assert v.duplicate_of == seen[v.u]
        else:
            assert v.duplicate_of is None
            seen[v.u] = idx


def test_ray_hits_cone_basics(line_cubic_problem):
    prob = line_cubic_problem
    rng = random.Random(31)
    w = tuple(rng.randint(-(10**6), 10**6) for _ in range(prob.n))
    hit_count = 0
    for cone in prob.codim1_cones[:200]:
        s = dot(cone.normal, w)
        p0 = _dot_products((cone,), w)
        hits = _cone_hits(cone, p0[0], p0[1:], 0, [0] * len(cone.qrows))
        for i in range(1, prob.n + 1):
            g = cone.normal[i - 1]
            hit = i - 1 in hits
            if g == 0 or s * g > 0:
                assert not hit  # parallel direction, or crossing at t < 0
            hit_count += hit
    assert hit_count > 0


def test_packed_lanes_equal_dot(line_cubic_problem):
    prob = line_cubic_problem
    packed = prob._packed
    assert packed.wmax > 10**6
    rng = random.Random(41)
    n = prob.n
    vectors = [tuple(rng.randint(-(10**6), 10**6) for _ in range(n)) for _ in range(4)]
    # every entry at the proven bound, where a lane may reach 2^63 - 1
    vectors.append(tuple(rng.choice((-1, 1)) * packed.wmax for _ in range(n)))
    for v in vectors:
        expected = [
            dot(vec, v)
            for cone in prob.codim1_cones
            for vec in (cone.normal, *cone.qrows)
        ]
        assert _packed_products(packed, v) == expected


@pytest.mark.parametrize("x", [12, 3**37, 2**62])
def test_lane_bound_holds_at_its_extreme(x):
    n = 13
    cone = SimpleNamespace(normal=(x,) * n, qrows=((-x,) * n, (x, -x) * 6 + (0,)))
    prob = SimpleNamespace(n=n, codim1_cones=[cone])
    packed = prob._packed = _pack_cones(prob)
    wmax = (2**63 - 1) // (n * x)
    assert packed.wmax == (wmax if wmax else -1)
    # all entries +-wmax drive the first two lanes to +-n * x * wmax
    for v in ((wmax,) * n, (-wmax,) * n, (wmax + 1,) * n, (1,) * n):
        expected = [dot(vec, v) for vec in (cone.normal, *cone.qrows)]
        if max(map(abs, v)) <= packed.wmax:
            assert _packed_products(packed, v) == expected
        assert _inner_products(prob, v) == expected


def test_shoot_ties_match_scalar_reference(line_cubic_problem):
    prob = line_cubic_problem
    n = prob.n
    rng = random.Random(2026)
    objectives = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(300)]
    objectives.append((0,) * n)
    objectives += [tuple(int(j == i) for j in range(n)) for i in range(n)]
    objectives += [tuple(row) for row in prob.A.entries]
    # small entries always leave some cone's normal orthogonal to w; these do not
    objectives += [
        tuple(rng.randint(-(10**6), 10**6) for _ in range(n)) for _ in range(10)
    ]
    weights = {}
    ties = 0
    for w in objectives:
        hits = scalar_ray_hits(prob, w)
        if hits is None:
            ties += 1
            with pytest.raises(_Unresolved):
                _shoot(prob, w, None)
            continue
        u = [0] * n
        for pos, i in hits:
            if (pos, i) not in weights:
                weights[pos, i] = eq2_determinant(prob, prob.codim1_cones[pos], i)
            u[i] += weights[pos, i]
        assert _shoot(prob, w, None) == u, w
    assert 0 < ties < len(objectives)


def test_vertex_is_scale_invariant_past_the_lane_bound(line_cubic_problem):
    prob = line_cubic_problem
    n = prob.n
    w = tuple(random.Random(19).randint(-(10**6), 10**6) for _ in range(n))
    e1 = (1,) + (0,) * (n - 1)  # a tie: the big multiple perturbs with a packed r
    for obj in (w, e1, prob.A.entries[1]):
        big = tuple(10**25 * x for x in obj)
        assert max(map(abs, big)) > prob._packed.wmax
        small_v, big_v = shoot_vertex(prob, obj), shoot_vertex(prob, big)
        assert big_v.u == small_v.u
        assert big_v.perturbed == small_v.perturbed
    assert shoot_vertex(prob, e1).perturbed


def test_shooting_never_imports_numpy(tmp_path):
    # neither ray shooting nor the Bergman comparison (--compare) may load numpy
    src = str(Path(tropfan.__file__).resolve().parents[1])
    matrix, fan_out = tmp_path / "cube3.txt", tmp_path / "fan.txt"
    write_matrix_file(matrix, cube_matrix(3))
    code = (
        "import sys\n"
        "import tropfan\n"
        "from tropfan import cli\n"
        "from tropfan.data import TANGENT_LINE_CUBIC_4X13\n"
        "prob = tropfan.setup(TANGENT_LINE_CUBIC_4X13)\n"
        "tropfan.random_vertices(prob, 3, seed=1)\n"
        f"args = [{str(matrix)!r}, '--dual', '--compare',\n"
        f"        '--output', {str(fan_out)!r}]\n"
        "assert cli.main(args) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    assert "\nBERGMAN\n" in fan_out.read_text()
