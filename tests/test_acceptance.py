"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  CLI outputs are memoized so the determinism criterion can
re-run each configuration once more and byte-compare.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import pytest

from brute import (
    expected_ray_supports,
    induce_pair,
    interior_witness,
    is_in_local_trop,
    is_in_trop,
    nonneg_combination_exists,
    pair_key,
    rank_of_rows,
    tutte_eval,
)
from conftest import (
    random_fan_matrices,
    run_cli,
    small_corpus,
    source_pairs,
    write_matrix_file,
)
from tropfan.data import (
    GRAPHIC_3X6,
    TANGENT_CONIC_CUBIC_4X16,
    TANGENT_LINE_CUBIC_4X13,
    TANGENT_LINE_CUBIC_GALE_9X13,
    TANGENT_QUADRICS_5X20,
    TANGENT_THREE_QUADRICS_6X30,
    cube_matrix,
)
from tropfan.discriminant import setup
from tropfan.fan import compare_with_bergman, cyclic_bergman_fan
from tropfan.matroid import Matroid
from tropfan.util import dot

ROOT = Path(__file__).resolve().parents[1]

_RUNS: dict = {}
_FILES: dict = {}


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    for name, A in [
        ("cube3", cube_matrix(3)),
        ("cube4", cube_matrix(4)),
        ("graphic", GRAPHIC_3X6),
        ("line_cubic", TANGENT_LINE_CUBIC_4X13),
        ("line_cubic_gale", TANGENT_LINE_CUBIC_GALE_9X13),
        ("quadrics", TANGENT_QUADRICS_5X20),
        ("conic_cubic", TANGENT_CONIC_CUBIC_4X16),
        ("three_quadrics", TANGENT_THREE_QUADRICS_6X30),
    ]:
        path = root / f"{name}.txt"
        write_matrix_file(path, A)
        _FILES[name] = str(path)
    return root


def cli_once(*args):
    """Memoized CLI invocation; returns (exit code, stdout, elapsed seconds)."""
    key = tuple(args)
    if key not in _RUNS:
        t0 = time.perf_counter()
        code, out = run_cli(list(args))
        _RUNS[key] = (code, out, time.perf_counter() - t0)
    return _RUNS[key]


def parse_header(out):
    header = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in {"n", "m", "rays", "maxcones"}:
            header[parts[0]] = int(parts[1])
        else:
            break
    return header


def section(out, name):
    lines = out.splitlines()
    try:
        start = lines.index(name) + 1
    except ValueError:
        return None
    body = []
    for line in lines[start:]:
        if line.isupper() and line.isalpha():
            break
        body.append(line)
    return body


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {summary}", flush=True)
        raise
    print(f"PASS criterion {num}: {summary}", flush=True)


def test_criterion_1_cube3(matrix_dir):
    with criterion(1, "3-cube: 20 rays, 80 cones, 80 singleton classes, < 1 s"):
        code, out, elapsed = cli_once(_FILES["cube3"], "--compare")
        assert code == 0
        header = parse_header(out)
        assert header["rays"] == 20 and header["maxcones"] == 80
        classes = section(out, "BERGMAN")
        assert len(classes) == 80
        assert all(len(line.split()) == 1 for line in classes)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_cube4(matrix_dir):
    with criterion(2, "4-cube: 176 rays, 2720 cones, 2600 classes, < 30 s"):
        code, out, elapsed = cli_once(_FILES["cube4"], "--compare")
        assert code == 0
        header = parse_header(out)
        assert header["rays"] == 176 and header["maxcones"] == 2720
        assert len(section(out, "BERGMAN")) == 2600
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_3_line_cubic_dual_paths(matrix_dir):
    with criterion(
        3, "Gale dual: 430 bases; 29 rays, 2466 cones via both paths, < 10 s"
    ):
        t0 = time.perf_counter()
        assert len(Matroid.from_matrix(TANGENT_LINE_CUBIC_GALE_9X13).bases) == 430
        code_a, direct, e1 = cli_once(_FILES["line_cubic_gale"])
        code_b, dual, e2 = cli_once(_FILES["line_cubic"], "--dual")
        assert code_a == 0 and code_b == 0
        assert direct == dual
        header = parse_header(direct)
        assert header["rays"] == 29 and header["maxcones"] == 2466
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_4_quadrics_counts(matrix_dir):
    with criterion(4, "5x20 dual fan: 172 rays, 475722 cones, < 10 min"):
        code, out, elapsed = cli_once(_FILES["quadrics"], "--dual", "--counts-only")
        assert code == 0
        header = parse_header(out)
        assert header["rays"] == 172 and header["maxcones"] == 475722
        assert elapsed < 600.0, f"took {elapsed:.2f}s"


def test_bergman_class_counts(matrix_dir):
    code, out, _ = cli_once(_FILES["line_cubic_gale"], "--compare")
    assert code == 0
    assert len(section(out, "BERGMAN")) == 2223
    code, out, _ = cli_once(_FILES["conic_cubic"], "--dual", "--compare")
    assert code == 0
    assert len(section(out, "BERGMAN")) == 16827


QUADRICS_CLASSES = """
import json
from tropfan.data import TANGENT_QUADRICS_5X20
from tropfan.fan import compare_with_bergman, cyclic_bergman_fan
from tropfan.matroid import Matroid

M = Matroid.from_matrix(TANGENT_QUADRICS_5X20).dual()
count = len(compare_with_bergman(cyclic_bergman_fan(M), M))
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps([count, hwm_kb]))
"""


def test_quadrics_dual_bergman_class_count():
    # in a fresh process, so that its peak RSS is the call's own; a class
    # key packs the partition's blocks of two or more elements into one
    # int (28 to 36 bytes here); keeping every tight-basis bitset key
    # (about 870 bytes each) peaked at about 460 MB, and one list of cones
    # per class plus a bucket list per hash at about 170 MB
    proc = subprocess.run(
        [sys.executable, "-c", QUADRICS_CLASSES],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    count, hwm_kb = json.loads(proc.stdout)
    assert count == 382446
    assert hwm_kb < 120 * 1024, f"VmHWM {hwm_kb} kB"


@pytest.fixture(scope="module")
def conic_cubic_problem():
    t0 = time.perf_counter()
    prob = setup(TANGENT_CONIC_CUBIC_4X16)
    return prob, time.perf_counter() - t0


def test_criterion_5_ray_shooting(matrix_dir, conic_cubic_problem):
    with criterion(
        5,
        "4x16 discriminant: 18045 cones, 6675 codim-1, 100 vertices with "
        "A-degree (24, 22, -6, -6) and coordinate sum 46",
    ):
        prob, setup_elapsed = conic_cubic_problem
        assert len(prob.fan.maximal_cones) == 18045
        assert len(prob.codim1_cones) == 6675
        assert setup_elapsed < 300.0, f"setup took {setup_elapsed:.1f}s"
        code, out, elapsed = cli_once(
            _FILES["conic_cubic"], "--random", "100", "--seed", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "A-DEGREE 24 22 -6 -6"
        vertices = [tuple(int(x) for x in line.split()) for line in lines[1:]]
        assert len(vertices) == 100
        A = TANGENT_CONIC_CUBIC_4X16
        for u in vertices:
            assert sum(u) == 46
            assert tuple(dot(row, u) for row in A.entries) == (24, 22, -6, -6)
        assert elapsed < 1800.0, f"took {elapsed:.2f}s"


def test_criterion_6_graphic_fan(matrix_dir):
    with criterion(
        6,
        "graphic example: rays {12, 34, 5, 6, 1234}, 7 cones, 6 classes, "
        "split pair shares ray 1234",
    ):
        code, out, _ = cli_once(_FILES["graphic"], "--compare")
        assert code == 0
        header = parse_header(out)
        assert header["maxcones"] == 7
        rays = [tuple(int(x) for x in line.split()) for line in section(out, "RAYS")]
        supports = {tuple(i + 1 for i, x in enumerate(r) if x) for r in rays}
        assert supports == {(1, 2), (3, 4), (5,), (6,), (1, 2, 3, 4)}
        classes = [line.split() for line in section(out, "BERGMAN")]
        assert len(classes) == 6
        doubles = [c for c in classes if len(c) == 2]
        assert len(doubles) == 1 and all(len(c) == 1 for c in classes if c not in doubles)
        cones = [
            tuple(int(x) for x in line.split()) for line in section(out, "MAXCONES")
        ]
        a, b = (int(i) for i in doubles[0])
        shared = set(cones[a]) & set(cones[b])
        assert len(shared) == 1
        ray = rays[shared.pop()]
        assert tuple(i + 1 for i, x in enumerate(ray) if x) == (1, 2, 3, 4)


def _intersection_equals_common_span(fan, ca, cb):
    """Exact feasibility check that two cones meet only along their common rays."""
    ones = [(1,) * fan.n]
    common = set(ca) & set(cb)
    rays_a = [fan.rays[i] for i in ca]
    neg_rays_b = [tuple(-x for x in fan.rays[i]) for i in cb]
    for pos, i in enumerate(ca):
        if i in common:
            continue
        others = [r for j, r in enumerate(rays_a) if j != pos]
        target = tuple(-x for x in rays_a[pos])
        if nonneg_combination_exists(others + neg_rays_b, ones, target):
            return False
    return True


def test_criterion_7_property_suite():
    with criterion(
        7,
        "property suite over the small corpus plus 50 random matrices: "
        "ray flats, support, uniqueness, round trips, intersections, Tutte",
    ):
        t0 = time.perf_counter()
        matroids = [(name, Matroid.from_matrix(A)) for name, A in small_corpus()]
        matroids += [
            (f"random{i}", M)
            for i, M in enumerate(random_fan_matrices(50, seed=20260810))
        ]
        for name, M in matroids:
            assert M.n <= 9
            fan = cyclic_bergman_fan(M)
            cols = list(zip(*M.A.entries))
            # (a) ray supports = proper flats that are cyclic or singletons
            supports = {
                frozenset(fan.ray_support(i)) for i in range(len(fan.rays))
            }
            assert supports == expected_ray_supports(cols), name
            # (b) interior witnesses satisfy the full circuit test
            witnesses = [
                interior_witness(fan, ci) for ci in range(len(fan.maximal_cones))
            ]
            assert all(is_in_trop(M, w) for w in witnesses), name
            # (c) no duplicate cones
            assert len(set(fan.maximal_cones)) == len(fan.maximal_cones), name
            # (d) witnesses re-induce their source pairs
            pairs = source_pairs(M)
            assert len(pairs) == len(fan.maximal_cones), name
            for ci, pair in enumerate(pairs):
                v = witnesses[ci]
                assert is_in_local_trop(M, pair.basis, v), (name, ci)
                assert pair_key(induce_pair(M, pair.basis, v)) == pair_key(pair), (
                    name,
                    ci,
                )
            # (e) pairwise intersections equal common-ray spans
            if len(fan.maximal_cones) <= 500:
                for a, b in combinations(range(len(fan.maximal_cones)), 2):
                    assert _intersection_equals_common_span(
                        fan, fan.maximal_cones[a], fan.maximal_cones[b]
                    ), (name, a, b)
            # (f) Tutte specializations
            T = M.tutte_polynomial()
            n = M.n
            assert tutte_eval(T, 1, 1) == len(M.bases), name
            n_indep = 0
            n_span = 0
            for mask in range(1 << n):
                S = tuple(i + 1 for i in range(n) if mask >> i & 1)
                r = rank_of_rows([cols[i - 1] for i in S])
                n_indep += r == len(S)
                n_span += r == M.m
            assert tutte_eval(T, 2, 1) == n_indep, name
            assert tutte_eval(T, 1, 2) == n_span, name
            assert tutte_eval(T, 2, 2) == 2**n, name
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


#: sha256 of the stdout of each (input, flags) configuration, pinned so that
#: a change to the CLI, fan, Tutte or shooting code that alters a byte fails
PINNED_STDOUT = {
    ("cube3", "--compare"): (
        "5f63ff450979c4b3a750239ed520f4d7c8bd3643ae2f1200c729d902f3b5b204"
    ),
    ("cube4", "--compare"): (
        "5684e58ebc27288f9afdd51ee2af6ae41cb18880d0b171ef85c8aa9a78836dc8"
    ),
    ("line_cubic_gale",): (
        "845f053caca50d8e4e40bb449e09567c08ac989cb2cf0918eda6dd725a48313d"
    ),
    ("line_cubic", "--dual"): (
        "845f053caca50d8e4e40bb449e09567c08ac989cb2cf0918eda6dd725a48313d"
    ),
    ("quadrics", "--dual", "--counts-only"): (
        "64c46e78ff1d75a28e589b47433df9094089a9a827247b2e93d69d4466f7089c"
    ),
    ("conic_cubic", "--random", "100", "--seed", "1"): (
        "412e0e5c70e8e928c881dd08572921dcd86193e16e7fa04e068fe54fa9623801"
    ),
    ("graphic", "--compare"): (
        "2adb771decdcabb7de047074675c9d0ba0f023b1428bbefef925d736209360be"
    ),
    ("conic_cubic", "--dual", "--compare"): (
        "b32c80e75d526cf02c1aaec007aa9eaae0cbc3de9f0fb4960d97b27e215508bc"
    ),
    ("cube4", "--bases", "--circuits", "--tutte"): (
        "be40f358dbac07db9b931db411868178658deef66918209f632dc62e9223adbb"
    ),
    ("line_cubic", "--dual", "--bases", "--circuits", "--tutte"): (
        "a3cc7359ae5789696e83a8b59b0e67bb2f54f3c4121d435c778461cf2b1afc36"
    ),
}


def test_criterion_8_determinism(matrix_dir):
    with criterion(
        8,
        "byte-identical reruns of criteria 1-6 and pinned output hashes; "
        "--threads 4 equals --threads 0",
    ):
        for (name, *flags), digest in PINNED_STDOUT.items():
            config = (_FILES[name], *flags)
            first = cli_once(*config)
            code, out = run_cli(list(config))
            assert (code, out) == (first[0], first[1]), config
            assert code == 0, config
            assert hashlib.sha256(out.encode()).hexdigest() == digest, config
        for config in [
            (_FILES["cube3"],),
            (_FILES["line_cubic"], "--dual"),
            (_FILES["quadrics"], "--dual", "--counts-only"),
            (_FILES["line_cubic"], "--random", "20", "--seed", "1"),
        ]:
            base = cli_once(*config)
            code, out = run_cli([*config, "--threads", "4"])
            assert (code, out) == (base[0], base[1]), config


@pytest.mark.stress
def test_stress_three_quadrics_counts():
    """154 million cones; `pytest -m stress` runs it.

    Sequential fan_counts took 699 s wall, 689 s CPU and 45 MB peak RSS on a
    2-core Intel Xeon VM with Python 3.11.7 (one timed run, outside pytest).
    """
    M = Matroid.from_matrix(TANGENT_THREE_QUADRICS_6X30).dual()
    from tropfan.fan import fan_counts

    nrays, ncones = fan_counts(M)
    assert (nrays, ncones) == (929, 154495683)
