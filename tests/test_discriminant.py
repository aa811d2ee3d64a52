"""Ray shooting for Newton-polytope vertices."""

import hashlib
import random
import warnings

import pytest

from tropfan.data import TANGENT_LINE_CUBIC_4X13
from tropfan.discriminant import (
    _shoot,
    eq2_determinant,
    random_vertices,
    ray_hits_cone,
    setup,
    shoot_vertex,
)
from tropfan.errors import (
    DegenerateDual,
    LatticeNotSpanned,
    NoAllOnesRow,
    RankError,
)
from tropfan.exact import IntMat
from tropfan.util import dot


@pytest.fixture(scope="module")
def line_cubic_problem():
    return setup(TANGENT_LINE_CUBIC_4X13)


def test_setup_counts(line_cubic_problem):
    prob = line_cubic_problem
    assert len(prob.fan.maximal_cones) == 2466
    assert prob.lattice_spanned
    assert all(len(c.qrows) == prob.n - prob.m - 1 for c in prob.codim1_cones)


def test_setup_rejects_rank_deficient():
    with pytest.raises(RankError):
        setup(IntMat.from_rows([[1, 1, 0, 0], [2, 2, 0, 0]]))


def test_setup_rejects_degenerate_dual():
    with pytest.raises(DegenerateDual):
        setup(IntMat.from_rows([[1, 1]]))


def test_setup_rejects_missing_all_ones_row():
    with pytest.raises(NoAllOnesRow):
        setup(IntMat.from_rows([[1, 0, 0, 0], [0, 1, 2, 3]]))


def test_setup_warns_when_lattice_not_spanned():
    A = IntMat.from_rows([[1, 1, 1, 1], [0, 2, 0, 2]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prob = setup(A)
    assert any("gcd" in str(w.message) for w in caught)
    assert not prob.lattice_spanned
    with pytest.raises(LatticeNotSpanned):
        shoot_vertex(prob, (1, 2, 3, 4))


def test_determinant_factors_through_normal(line_cubic_problem):
    prob = line_cubic_problem
    rng = random.Random(2)
    for cone in rng.sample(prob.codim1_cones, 12):
        i0 = next(i for i, x in enumerate(cone.normal) if x)
        d = eq2_determinant(prob, cone, i0)
        kappa, rem = divmod(d, abs(cone.normal[i0]))
        assert rem == 0 and kappa > 0
        for i in rng.sample(range(prob.n), 5):
            assert eq2_determinant(prob, cone, i) == kappa * abs(cone.normal[i])


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
    for pos, cone in enumerate(prob.codim1_cones[:200]):
        s = dot(cone.normal, w)
        for i in range(1, prob.n + 1):
            g = cone.normal[i - 1]
            hit = ray_hits_cone(prob, pos, w, i)
            if g == 0 or s * g > 0:
                assert not hit  # parallel direction, or crossing at t < 0
            hit_count += hit
    assert hit_count > 0
