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
from brute import (
    codim1_oracle,
    dual_defective_vertices,
    eq2_determinant,
    hyperdeterminant_222_monomials,
    maximal_minor_gcd,
    perturbed_argmin,
    scalar_ray_hits,
    scalar_shoot,
    univariate_discriminant_vertices,
)
from conftest import UNSATURATED_3X7, UNSPANNED_3X7, write_matrix_file
from tropfan.data import (
    GRAPHIC_3X6,
    TANGENT_CONIC_CUBIC_4X16,
    TANGENT_LINE_CUBIC_4X13,
    TANGENT_QUADRICS_5X20,
    cube_matrix,
)
from tropfan.discriminant import (
    OBJECTIVE_RANGE,
    SHOT_CHUNK,
    Codim1Cone,
    _pack_cones,
    _shoot,
    random_vertices,
    setup,
    shoot_vertex,
    shoot_vertices,
)
from tropfan.errors import (
    DegenerateDual,
    HasColoops,
    HasLoops,
    LatticeNotSpanned,
    NoAllOnesRow,
    RankError,
    WrongSize,
)
from tropfan.exact import IntMat, det
from tropfan.util import dot, primitive


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
    "A, rows, distinct, normals",
    [(TANGENT_LINE_CUBIC_4X13, 6816, 1106, 180), (TANGENT_CONIC_CUBIC_4X16, 73425, 13876, 1209)],
    ids=["line_cubic", "conic_cubic"],
)
def test_equal_q_rows_are_one_tuple(A, rows, distinct, normals):
    # the walk interns Q rows, normals and supports: equal tuples of different
    # cones share one object
    cones = setup(A).codim1_cones
    qrows = [row for c in cones for row in c.qrows]
    assert all(type(row) is tuple for row in qrows)
    assert len(qrows) == rows
    assert len(set(qrows)) == len({id(row) for row in qrows}) == distinct
    for values in ([c.normal for c in cones], [c.support for c in cones]):
        assert all(type(v) is tuple for v in values)
        assert len(set(values)) == len({id(v) for v in values}) == normals


SETUP_PEAK_SCRIPT = """
import json, statistics, sys  # loaded first, as a benchmark child loads them
from tropfan import cli, discriminant
from tropfan.data import TANGENT_CONIC_CUBIC_4X16


def hwm_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


before = hwm_kb()
prob = discriminant.setup(TANGENT_CONIC_CUBIC_4X16)
after = hwm_kb()
discriminant.shoot_vertex(prob, range(1, prob.n + 1))  # the first shot packs the cones
print(len(prob.codim1_cones), before, after, hwm_kb())
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_conic_cubic_setup_peak_memory():
    # one tuple per Q row took setup 16.3 MB above the import's peak;
    # interned, the rise is 6.7 MB.  A pack of one (q, G, c) triple per
    # direction and row took the first shot 15.9 MB higher; signed form ids
    # and shared coordinate columns took it 7.5 MB higher, and one id tuple
    # per cone instead of two takes it 6.6 MB higher
    src = str(Path(tropfan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PEAK_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    cones, before, after, shot = map(int, proc.stdout.split())
    assert cones == 6675
    assert (after - before) / 1024 < 10, (before, after)
    assert (shot - after) / 1024 < 7, (after, shot)


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
    for A, g in ((UNSPANNED_3X7, 2), (UNSATURATED_3X7, 1)):
        other = setup(A)
        assert maximal_minor_gcd(A) == g
        assert other.lattice_spanned == (g == 1)
        # Aperp is a Z-basis of the integer kernel, so this ratio is +-g
        rows = other.A.entries
        gram = det(IntMat.from_rows([[dot(a, b) for b in rows] for a in rows]))
        ratio = Fraction(gram, det(IntMat.from_rows(rows + other.Aperp.entries)))
        assert abs(ratio) == g
        assert other.codim1_cones
        for cone in other.codim1_cones:
            for i in range(other.n):
                assert eq2_determinant(other, cone, i) == cone.kappa * abs(cone.normal[i])
    with pytest.raises(LatticeNotSpanned):
        shoot_vertex(setup(UNSPANNED_3X7), (1, 2, 3, 4, 5, 6, 7))


def test_lattice_spanned_iff_coprime_maximal_minors():
    rng = random.Random(11)
    seen = []
    for _ in range(40):
        m = rng.randint(2, 3)
        n = rng.randint(m + 2, 6)
        rows = [[1] * n] + [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m - 1)]
        if rng.random() < 0.5:
            rows[-1] = [2 * x for x in rows[-1]]
        A = IntMat.from_rows(rows)
        try:
            prob = setup(A)
        except (RankError, HasLoops, HasColoops):
            continue
        assert prob.lattice_spanned == (maximal_minor_gcd(A) == 1)
        seen.append(prob.lattice_spanned)
    assert seen.count(True) >= 5 and seen.count(False) >= 5


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
    rng = random.Random(77)  # one generator, not one per entry, so w is not constant
    w = tuple(rng.randint(-(10**6), 10**6) for _ in range(prob.n))
    assert shoot_vertex(prob, w).u == shoot_vertex(prob, w).u
    assert random_vertices(prob, 6, seed=3) == random_vertices(prob, 6, seed=3)


def _explicit_perturbation(w):
    """M * w + (B^(n-1), ..., B, 1), B = 10^6 and M = B^n: w + (eps, ..., eps^n) at eps = 1/B."""
    n, big = len(w), 10**6
    return tuple(big**n * x + big ** (n - 1 - k) for k, x in enumerate(w))


def test_perturbed_agrees_with_clean_run(line_cubic_problem):
    # a generic objective ties nowhere, so the perturbation moves no hit
    prob = line_cubic_problem
    rng = random.Random(123)
    w = tuple(rng.randint(-(10**6), 10**6) for _ in range(prob.n))
    clean = shoot_vertex(prob, w)
    assert not clean.perturbed
    assert scalar_ray_hits(prob, w, perturbed=True) == scalar_ray_hits(prob, w)
    explicit = shoot_vertex(prob, _explicit_perturbation(w))
    assert (explicit.u, explicit.perturbed) == (clean.u, False)


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
    # the tie-break rule without the oracle: a tied w gets the vertex of the
    # explicit integer objective that realizes w + (eps, ..., eps^n), which ties nowhere
    problems = [line_cubic_problem]
    problems += [setup(A) for A in (GRAPHIC_3X6, cube_matrix(3), cube_matrix(4))]
    rng = random.Random(18)
    tied = 0
    for prob in problems:
        n = prob.n
        objectives = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(10)]
        objectives += [tuple(int(j == i) for j in range(n)) for i in range(n)]
        objectives += [tuple(row) for row in prob.A.entries]
        objectives.append((0,) * n)
        for w in objectives:
            v = shoot_vertex(prob, w)
            explicit = shoot_vertex(prob, _explicit_perturbation(w))
            assert not explicit.perturbed, w
            assert v.u == explicit.u, w
            assert v.a_degree == prob.a_degree
            tied += v.perturbed
        assert shoot_vertex(prob, (0,) * n).perturbed
    assert tied > len(problems)


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


def test_random_vertices_rejects_a_negative_count(line_cubic_problem):
    # as the CLI rejects --random -1; an empty list would hide the mistake
    with pytest.raises(ValueError, match="nonnegative"):
        random_vertices(line_cubic_problem, -1, seed=1)


def test_ray_hits_cone_basics(line_cubic_problem):
    prob = line_cubic_problem
    rng = random.Random(31)
    w = tuple(rng.randint(-(10**6), 10**6) for _ in range(prob.n))
    # entries at +-max|w|, the extreme the lanes of their shared pass are sized for
    extreme = tuple(rng.choice((-1, 1)) * max(map(abs, w)) for _ in range(prob.n))
    hit_count = 0
    for k, cone in enumerate(prob.codim1_cones[:200]):
        nid, _, (pos, neg) = prob._packed.table[k]
        assert prob._packed.forms[nid] == cone.normal
        assert [d[0] for d in pos] == [i for i in cone.support if cone.normal[i] > 0]
        assert [d[0] for d in neg] == [i for i in cone.support if cone.normal[i] < 0]
        # shoot the cone alone: its table row is the only one read
        single = SimpleNamespace(n=prob.n, m=prob.m, codim1_cones=[cone])
        single._packed = _pack_cones(single)
        (u, _), far = _shoot(single._packed, [w, extreme])
        hits = [i for i in range(prob.n) if u[i]]
        assert hits == [i for _, i in scalar_ray_hits(single, w)]
        assert far == scalar_shoot(single, extreme)
        s = dot(cone.normal, w)
        for i in range(prob.n):
            g = cone.normal[i]
            if g == 0 or s * g > 0:
                assert i not in hits  # parallel direction, or crossing at t < 0
            if i in hits:
                assert u[i] == cone.kappa * abs(g)
        hit_count += len(hits)
    assert hit_count > 0


def _extreme_objectives(packed, n, wmax):
    """Entries +-wmax along the sign pattern of a longest form: its product is +-|form|_1 * wmax."""
    l1max = max(sum(map(abs, form)) for form in packed.forms)
    longest = [form for form in packed.forms if sum(map(abs, form)) == l1max][:1]
    signs = [tuple(1 if x >= 0 else -1 for x in form) for form in longest]
    return [tuple(k * wmax * x for x in sign) for sign in signs for k in (1, -1)]


def test_packed_lanes_equal_dot(line_cubic_problem):
    # objective l is lane l of one int per coordinate; lanes are sized by
    # bound * max|w|, bound = 2 * max|x| * max |form|_1 = 2 * 6 * 22, and
    # entries at +-max|w| along a longest form drive its product to that
    # form's |form|_1 * max|w|.  Shots off the lanes equal the scalar shots,
    # which read plain dot products
    prob = line_cubic_problem
    packed = prob._packed
    xmax = max(abs(x) for form in packed.forms for x in form)
    l1max = max(sum(map(abs, form)) for form in packed.forms)
    assert (xmax, l1max, packed.bound) == (6, 22, 264)
    rng = random.Random(41)
    n = prob.n
    vectors = [tuple(rng.randint(-(10**6), 10**6) for _ in range(n)) for _ in range(4)]
    vectors += _extreme_objectives(packed, n, 10**6)
    vectors += [tuple(rng.choice((-1, 1)) * 10**6 for _ in range(n)) for _ in range(4)]
    assert max(abs(dot(form, v)) for form in packed.forms for v in vectors) == l1max * 10**6
    assert _shoot(packed, vectors) == [scalar_shoot(prob, v) for v in vectors]


@pytest.mark.parametrize(
    "A, lanes, forms, bound",
    [
        (TANGENT_LINE_CUBIC_4X13, 7668, 532, 264),
        (TANGENT_CONIC_CUBIC_4X16, 80100, 6722, 1500),
        (cube_matrix(4), None, None, None),
        (GRAPHIC_3X6, None, None, None),
        (cube_matrix(3), None, None, None),
    ],
    ids=["line_cubic", "conic_cubic", "cube4", "graphic_3x6", "cube3"],
)
def test_interned_table_equals_per_cone_dots(A, lanes, forms, bound):
    # each normal and Q row is read as k times an interned primitive form;
    # the table must reproduce every per-cone product and sign it replaced,
    # and every row test must stay within the bound the lanes are sized by
    prob = setup(A)
    packed = prob._packed
    n, cones = prob.n, prob.codim1_cones
    assert len(set(packed.forms)) == len(packed.forms)
    assert all(primitive(form) == form for form in packed.forms)
    xmax = max(abs(x) for form in packed.forms for x in form)
    assert packed.bound == 2 * xmax * max(sum(map(abs, form)) for form in packed.forms)
    # no vertex entry can pass the sum of every cone's weights
    assert packed.usum == sum(c.kappa * sum(map(abs, c.normal)) for c in cones)
    if lanes is not None:  # 7,668 per-cone vectors share 532 forms on line/cubic
        assert sum(1 + len(c.qrows) for c in cones) == lanes
        assert (len(packed.forms), packed.bound) == (forms, bound)
    assert len(packed.table) == len(cones)
    # signed id q >= 0 reads forms[q], ~q reads -forms[q]: index ~q is from the end
    signed_forms = packed.forms + tuple(tuple(-x for x in form) for form in packed.forms[::-1])
    columns = {}  # coordinate -> its one shared column, by form id
    scaled = []  # per cone, |k| per Q row, with sign(D) * Q_j = |k| * signed_forms[ids[j]]
    for cone, (nid, ids, (pos_dirs, neg_dirs)) in zip(cones, packed.table):
        assert packed.forms[nid] == cone.normal
        order = sorted(cone.support, key=lambda i: cone.normal[i] < 0)
        assert [d[0] for d in pos_dirs + neg_dirs] == order
        assert len(ids) == len(cone.qrows)
        sgn_d = 1 if cone.denom > 0 else -1
        ks = []
        for q, qrow in zip(ids, cone.qrows):
            form = signed_forms[q]
            k = next(filter(None, qrow)) * sgn_d // next(filter(None, form))
            assert k > 0 and tuple(k * x * sgn_d for x in form) == qrow
            ks.append(k)
        for dirs, sign in ((pos_dirs, 1), (neg_dirs, -1)):
            for i, h, weight, col in dirs:
                assert h == sign * cone.normal[i] > 0
                assert weight == cone.kappa * h
                if i not in columns:
                    assert list(col) == [form[i] for form in packed.forms]
                assert columns.setdefault(i, col) is col
        scaled.append((nid, ids, pos_dirs + neg_dirs, ks))
    rng = random.Random(53)
    objectives = [tuple(rng.randint(-(10**6), 10**6) for _ in range(n)) for _ in range(3)]
    extremes = _extreme_objectives(packed, n, OBJECTIVE_RANGE)
    objectives += [tuple(row) for row in prob.A.entries] + extremes
    for w in objectives:
        P = [dot(form, w) for form in signed_forms]
        limit = packed.bound * max(map(abs, w))
        for cone, (nid, ids, dirs, ks) in zip(cones, scaled):
            s = P[nid]
            assert s == dot(cone.normal, w)
            lam = [dot(qrow, w) for qrow in cone.qrows]
            sgn_d = 1 if cone.denom > 0 else -1
            assert [P[q] * k * sgn_d for q, k in zip(ids, ks)] == lam
            # each row test, P[q] * |g| - s * (signed form q)_i for g > 0 and its
            # negation for g < 0, is the per-cone membership quantity
            # (lambda_j * g - s * Q_ji) * sign(D * g), divided by |k|
            for i, h, _, col in dirs:
                sign = 1 if cone.normal[i] > 0 else -1
                for q, k, qrow, lj in zip(ids, ks, cone.qrows, lam):
                    test = sign * (P[q] * cone.normal[i] - s * signed_forms[q][i])
                    assert test * k == (lj * cone.normal[i] - s * qrow[i]) * sgn_d * sign
                    assert abs(test) <= limit
    shot = objectives[:3] + extremes  # the rows of A tie, which other tests cover
    assert _shoot(packed, shot) == [scalar_shoot(prob, w) for w in shot]


@pytest.mark.parametrize("x", [pytest.param(x, id=str(x)) for x in (12, 165, 166, 3**37, 2**62)])
def test_lane_bound_holds_at_its_extreme(x):
    # normal and form have |x|_1 = 13x - 1 and max|x| = x, so the lanes are
    # sized by bound = 2x(13x - 1) times max|w|.  With g = normal_12 = x the
    # row test is x (form - normal) . w up to sign, and w = -max|w| in every
    # entry makes it 2x(12x - 1) max|w| > bound * max|w| / 2: no lane could be
    # a bit narrower than the bound's length
    n = 13
    normal = (x,) * 11 + (x - 1, x)
    form = (1 - x,) + (-x,) * 11 + (x,)
    cone = Codim1Cone(0, normal, (form,), 1, 1, tuple(range(n)))
    prob = SimpleNamespace(n=n, codim1_cones=[cone])
    packed = prob._packed = _pack_cones(prob)
    assert packed.forms == (normal, tuple(-y for y in form))
    assert packed.bound == 2 * x * (13 * x - 1)
    for wmax in (1, OBJECTIVE_RANGE, 10**25):
        extreme = (-wmax,) * n
        assert dot(normal, extreme) == -(13 * x - 1) * wmax  # the largest |s|
        row_test = x * dot([f - v for f, v in zip(form, normal)], extreme)
        assert 2 * row_test > packed.bound * wmax >= row_test
        vectors = [extreme, (wmax,) * n, (wmax, -wmax) * 6 + (wmax,), (-wmax,) * 12 + (wmax,)]
        vectors.append((1,) * n)  # a small objective in the same wide lanes
        shots = _shoot(packed, vectors)
        assert shots == [scalar_shoot(prob, v) for v in vectors]
        assert shots[0] == ((0,) * 12 + (x,), False)  # the extreme row test is positive: a hit


@pytest.mark.parametrize("scale", [30, 10**25], ids=["30x", "1e25x"])
def test_objectives_above_the_lane_bound_stay_exact(line_cubic_problem, scale):
    # no objective is past the lanes: they widen with the batch's max|w|, so
    # wide objectives share one pass with narrow tied ones and each vertex is
    # the scalar oracle's, perturbed for the tied objectives (a row of A, e1)
    prob = line_cubic_problem
    rng = random.Random(43)
    n = prob.n
    objectives = [tuple(scale * rng.randint(-(10**6), 10**6) for _ in range(n)) for _ in range(3)]
    objectives.append(tuple(scale * 10**6 * x for x in prob.A.entries[1]))
    objectives.append((scale * 10**6,) + (0,) * (n - 1))
    objectives.append(tuple(rng.choice((-1, 1)) * scale * 10**12 - 1 for _ in range(n)))
    objectives += [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)]
    weights, ties = {}, 0
    for w, shot in zip(objectives, _shoot(prob._packed, objectives)):
        hits = scalar_ray_hits(prob, w)
        tied = hits is None
        if tied:
            ties += 1
            hits = scalar_ray_hits(prob, w, perturbed=True)
        assert shot == (tuple(_oracle_vertex(prob, hits, weights)), tied), w
    assert ties >= 2  # at least the row of A and e1


def _oracle_vertex(prob, hits, weights):
    """u summed over the scalar oracle's hits, weights memoized per (cone, direction)."""
    u = [0] * prob.n
    for pos, i in hits:
        if (pos, i) not in weights:
            weights[pos, i] = eq2_determinant(prob, prob.codim1_cones[pos], i)
        u[i] += weights[pos, i]
    return u


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
    for w, v in zip(objectives, shoot_vertices(prob, objectives)):
        hits = scalar_ray_hits(prob, w)
        tied = hits is None
        if tied:  # the shot flags the tie and follows the perturbed oracle
            ties += 1
            hits = scalar_ray_hits(prob, w, perturbed=True)
        assert (v.u, v.perturbed) == (tuple(_oracle_vertex(prob, hits, weights)), tied), w
    assert 0 < ties < len(objectives)


@pytest.mark.parametrize(
    "A",
    [TANGENT_LINE_CUBIC_4X13, GRAPHIC_3X6, cube_matrix(3)],
    ids=["line_cubic", "graphic_3x6", "cube3"],
)
def test_perturbed_shoot_matches_scalar_reference(A):
    prob = setup(A)
    n = prob.n
    rng = random.Random(7)
    objectives = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(40)]
    objectives += [tuple(int(j == i) for j in range(n)) for i in range(n)]
    objectives += [tuple(row) for row in prob.A.entries]
    weights = {}
    resolved = 0  # objectives that tie unperturbed
    for w, v in zip(objectives, shoot_vertices(prob, objectives)):
        hits = scalar_ray_hits(prob, w, perturbed=True)
        assert hits is not None
        tied = scalar_ray_hits(prob, w) is None
        resolved += tied
        assert (v.u, v.perturbed) == (tuple(_oracle_vertex(prob, hits, weights)), tied), w
    assert resolved > 0


@pytest.mark.parametrize(
    "A",
    [
        TANGENT_LINE_CUBIC_4X13,
        TANGENT_CONIC_CUBIC_4X16,
        GRAPHIC_3X6,
        cube_matrix(3),
        cube_matrix(4),
    ],
    ids=["line_cubic", "conic_cubic", "graphic_3x6", "cube3", "cube4"],
)
def test_batch_matches_scalar_oracle(A):
    # lanes of one int against one objective at a time: small entries until
    # 200 of them tie, the random range, and wide entries, shot one at a
    # time, in batches of 37, and as one list longer than a batch
    prob = setup(A)
    n = prob.n
    rng = random.Random(29)
    objectives, expected = [], []
    while sum(tied for _, tied in expected) < 200:
        objectives.append(tuple(rng.randint(-2, 2) for _ in range(n)))
        expected.append(scalar_shoot(prob, objectives[-1]))
    for scale in (OBJECTIVE_RANGE, OBJECTIVE_RANGE, 10**12, 10**25):
        objectives += [tuple(rng.randint(-scale, scale) for _ in range(n)) for _ in range(10)]
    expected += [scalar_shoot(prob, w) for w in objectives[len(expected) :]]
    assert len(objectives) > SHOT_CHUNK

    def shots(vertices):
        return [(v.u, v.perturbed) for v in vertices]

    assert shots(shoot_vertices(prob, objectives)) == expected
    batches = [shoot_vertices(prob, objectives[k : k + 37]) for k in range(0, len(objectives), 37)]
    assert shots(v for batch in batches for v in batch) == expected
    singles = objectives[:10] + objectives[-15:]
    assert shots(shoot_vertex(prob, w) for w in singles) == expected[:10] + expected[-15:]


def test_vertex_is_scale_invariant_past_the_lane_bound(line_cubic_problem):
    prob = line_cubic_problem
    n = prob.n
    rng = random.Random(19)
    w = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
    e1 = (1,) + (0,) * (n - 1)  # a tie, and so is its big multiple
    for obj in (w, e1, prob.A.entries[1]):
        big = tuple(10**25 * x for x in obj)
        small_v, big_v = shoot_vertex(prob, obj), shoot_vertex(prob, big)
        assert big_v.u == small_v.u
        assert big_v.perturbed == small_v.perturbed
    assert shoot_vertex(prob, e1).perturbed


#: Delta_1 x Delta_2: dual defective, so its discriminant is a constant
DELTA1_X_DELTA2 = IntMat.from_rows(
    [[1] * 6, [0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
)


def _seeded_objectives(n, seed, count):
    # small entries tie often, wide ones almost never
    rng = random.Random(seed)
    objectives = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(count)]
    objectives += [tuple(rng.randint(-(10**6), 10**6) for _ in range(n)) for _ in range(count)]
    return objectives


def _shoot_against(prob, vertices, objectives):
    """Shoot the objectives in one call and check each against the explicit argmin.

    Returns the vertices reached and the number of tied objectives.
    """
    reached, ties = set(), 0
    for w, v in zip(objectives, shoot_vertices(prob, objectives)):
        assert v.u == perturbed_argmin(vertices, w), w
        reached.add(v.u)
        ties += v.perturbed
    return reached, ties


def _height_objectives(d, vertices):
    """Per vertex, heights i^2 on its subdivision's endpoints and d^3 elsewhere, which induce it."""
    return [tuple(i * i if u[i] or i in (0, d) else d**3 for i in range(d + 1)) for u in vertices]


@pytest.mark.parametrize("d", range(3, 13))
def test_univariate_discriminant_vertices(d):
    # Newton(Delta_A) is known without the fan: each seeded shot is the
    # explicit argmin, a tie broken by the same perturbation, and each
    # vertex is the shot of the heights that induce its subdivision
    prob = setup(IntMat.from_rows([[1] * (d + 1), list(range(d + 1))]))
    vertices = sorted(univariate_discriminant_vertices(d))
    assert len(vertices) == 2 ** (d - 1)
    seeded = _seeded_objectives(d + 1, d, 40)
    shots = shoot_vertices(prob, seeded + _height_objectives(d, vertices))
    assert [v.u for v in shots[len(seeded) :]] == vertices
    ties = 0
    for w, v in zip(seeded, shots):
        assert v.u == perturbed_argmin(vertices, w), w
        ties += v.perturbed
    assert ties > 0
    assert prob.a_degree == (2 * d - 2, d * (d - 1))


@pytest.mark.stress
def test_stress_univariate_discriminant_d16():
    """d = 16: 680 codim-1 cones, every one of the 32,768 vertices reached; `pytest -m stress`."""
    d = 16
    prob = setup(IntMat.from_rows([[1] * (d + 1), list(range(d + 1))]))
    assert len(prob.codim1_cones) == 680
    vertices = sorted(univariate_discriminant_vertices(d))
    assert len(vertices) == 2 ** (d - 1)
    shots = shoot_vertices(prob, _height_objectives(d, vertices))
    assert [v.u for v in shots] == vertices
    assert prob.a_degree == (2 * d - 2, d * (d - 1))


def test_cube3_vertices_are_hyperdeterminant_monomials():
    prob = setup(cube_matrix(3))
    monomials = hyperdeterminant_222_monomials()
    assert len(monomials) == 12
    reached, ties = _shoot_against(prob, monomials, _seeded_objectives(8, 3, 100))
    assert len(reached) == 6  # the other six monomials lie inside the polytope
    assert ties > 0
    assert prob.a_degree == (4, 2, 2, 2)


def test_dual_defective_discriminant_is_constant():
    prob = setup(DELTA1_X_DELTA2)
    assert prob.codim1_cones == []
    reached, _ = _shoot_against(prob, dual_defective_vertices(6), _seeded_objectives(6, 5, 20))
    assert reached == dual_defective_vertices(6)
    assert prob.a_degree == (0, 0, 0, 0)


QUADRICS_SHOTS_SCRIPT = """
import hashlib, io, sys
from contextlib import redirect_stdout
from tropfan import cli

buf = io.StringIO()
with redirect_stdout(buf):
    code = cli.main([sys.argv[1], "--random", "20", "--seed", "1"])
with open("/proc/self/status", encoding="ascii") as fh:
    hwm = int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
text = buf.getvalue()
print(code, hashlib.sha256(text.encode()).hexdigest(), hwm, text.splitlines()[0])
"""


@pytest.mark.stress
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_stress_quadrics_5x20_discriminant(tmp_path):
    """The 5x20 as a discriminant input: 118,488 codim-1 cones; `pytest -m stress` runs it.

    setup took 26-29 s and 20 shots about 6 s more, peaking at 217 MB VmHWM, on
    a 2-core host with Python 3.11.7.  A pack of one (q, G, c) triple per
    direction and row peaked at 413 MB.
    """
    src = str(Path(tropfan.__file__).resolve().parents[1])
    matrix = tmp_path / "quadrics_5x20.txt"
    write_matrix_file(matrix, TANGENT_QUADRICS_5X20)
    proc = subprocess.run(
        [sys.executable, "-c", QUADRICS_SHOTS_SCRIPT, str(matrix)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    code, digest, hwm_kb, first = proc.stdout.split(maxsplit=3)
    assert code == "0"
    assert first.strip() == "A-DEGREE 12 12 12 12 12"
    assert digest == "1f9b78761290fee5df1035221e933e11d144b38302454db4c436ee9d47e10407"
    assert int(hwm_kb) / 1024 <= 300, hwm_kb


def test_pack_is_built_by_the_first_shot():
    # packing in setup would add its time to every set-up, shot or not
    prob = setup(GRAPHIC_3X6)
    assert "_packed" not in vars(prob)
    shoot_vertex(prob, range(1, prob.n + 1))
    packed = vars(prob)["_packed"]
    shoot_vertex(prob, range(prob.n, 0, -1))
    assert prob._packed is packed


def test_newton_vertices_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "newton_vertices.py"
    src = str(Path(tropfan.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(script), "--example", "line_cubic", "--count", "3", "--seed", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert "A-degree: 12 10 -6 -6\n" in proc.stdout
    lines = proc.stdout.splitlines()
    # the pack has its own line, before the shots it no longer counts in
    pack = next(i for i, line in enumerate(lines) if line.startswith("pack: "))
    assert lines[pack].startswith("pack: 532 forms (") and lines[pack].endswith(" ms)")
    assert lines[pack + 1].endswith(" ms per vertex")
    if Path("/proc/self/status").exists():
        last = proc.stdout.splitlines()[-1]
        assert last.startswith("peak RSS ") and last.endswith(" MB"), last


def test_shooting_never_imports_numpy(tmp_path):
    # neither ray shooting nor the Bergman comparison (--compare) may load
    # numpy, and a sequential run loads neither the process pool nor dataclasses;
    # the arithmetic is integer throughout, so fractions and decimal stay out too
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
        "unused = ('numpy', 'concurrent.futures', 'multiprocessing', 'dataclasses',\n"
        "          'fractions', 'decimal')\n"
        "print([name for name in unused if name in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert "\nBERGMAN\n" in fan_out.read_text()
