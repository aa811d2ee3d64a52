"""Shared fixtures: the small-matroid corpus and an in-process CLI runner."""

import io
import random
from contextlib import redirect_stdout

import pytest

from brute import chain_pair
from tropfan.data import DEMO_4X7, GRAPHIC_3X6, UNIFORM_2_3, cube_matrix
from tropfan.errors import TropfanError
from tropfan.exact import IntMat
from tropfan.fan import _regressive_pairs
from tropfan.matroid import Matroid

#: Rank-2 uniform matroid on four elements (all column pairs independent).
UNIFORM_2_4 = IntMat.from_rows([[1, 0, 1, 1], [0, 1, 1, 2]])

#: Columns e1, e2, e3, e1, e1+e2, e2+e3: a parallel pair feeding a chain of
#: fundamental circuits; distinguishes the pair recursion from looser variants.
CHAIN_3X6 = IntMat.from_rows(
    [
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 1],
        [0, 0, 1, 0, 0, 1],
    ]
)

#: Two parallel classes only: every preference function is forced.
FORCED_2X4 = IntMat.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])

#: Maximal minors with gcd 2: the columns span a sublattice of index 2.
UNSPANNED_3X7 = IntMat.from_rows([[1] * 7, [-1, 3, 2, 3, 2, 2, 1], [-3, 3, 0, 3, -2, 2, -3]])
#: Coprime maximal minors, but the rref's kernel vectors span only a
#: sublattice of index 4913 = 17^3 of the integer kernel.
UNSATURATED_3X7 = IntMat.from_rows([[1] * 7, [-3, 1, -2, -3, 2, -2, 0], [-1, -2, 3, 3, 0, -2, 3]])


def small_corpus():
    """(name, IntMat) pairs for loop/coloop-free matroids with n <= 8."""
    return [
        ("uniform23", UNIFORM_2_3),
        ("uniform24", UNIFORM_2_4),
        ("graphic", GRAPHIC_3X6),
        ("chain", CHAIN_3X6),
        ("forced", FORCED_2X4),
        ("demo", DEMO_4X7),
        ("cube3", cube_matrix(3)),
    ]


def random_fan_matrices(count, seed, max_m=4, max_n=8):
    """Deterministic loop/coloop-free random matrices with full row rank."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(2, max_m)
        n = rng.randint(m + 2, max_n)
        A = IntMat.from_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        )
        try:
            M = Matroid.from_matrix(A)
        except TropfanError:
            continue
        if M.m != m:
            continue
        out.append(M)
    return out


def source_pairs(M):
    """The compatible pair of every maximal cone, in the fan's cone order."""
    return [
        chain_pair(B, chain)
        for B in M.bases
        for chain in _regressive_pairs(M.fundamental_circuit_masks(B))
    ]


@pytest.fixture(scope="session")
def corpus_matroids():
    return [(name, Matroid.from_matrix(A)) for name, A in small_corpus()]


def run_cli(args):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    from tropfan import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def write_matrix_file(path, A: IntMat):
    lines = [f"{A.rows} {A.cols}"]
    for row in A.entries:
        lines.append(" ".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
