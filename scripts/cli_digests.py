#!/usr/bin/env python3
"""Print one digest line per CLI run over the example matrices.

Usage: PYTHONPATH=src python scripts/cli_digests.py MATDIR

MATDIR holds the files written by scripts/write_example_matrices.py.  Every
one of them but three_quadrics_6x30.txt (the stress case: minutes even with
--counts-only --threads 2) is run in each fan mode below, and the inputs of
RANDOM_INPUTS also with --random 100 --seed 1: line/cubic, conic/cubic,
graphic_3x6, cube3 and cube4 print vertices, demo_4x7 and uniform_2_3 exit 2
with an error.  Line/cubic also runs with --random 100 --seed 1 --threads 2,
which builds setup's fan in worker processes.  Each line gives the input,
the flags, the exit code and the sha256 of stdout and of stderr.  The CLI
runs as `python -m tropfan` with the caller's environment, so the PYTHONPATH
picks the code under test: the digests of two source trees are equal iff
the CLI behaves byte-identically on these runs, e.g.

    PYTHONPATH=old/src python scripts/cli_digests.py mats > old.txt
    PYTHONPATH=new/src python scripts/cli_digests.py mats > new.txt
    diff old.txt new.txt
"""

import hashlib
import subprocess
import sys
from pathlib import Path

SKIP = {"three_quadrics_6x30.txt"}
FAN_MODES = [
    [],
    ["--dual"],
    ["--compare"],
    ["--dual", "--compare"],
    ["--counts-only"],
    ["--dual", "--counts-only"],
    ["--bases", "--circuits", "--tutte"],
    ["--dual", "--bases", "--circuits", "--tutte"],
    ["--dual", "--threads", "2"],
    ["--dual", "--counts-only", "--threads", "2"],
]
RANDOM_INPUTS = [
    "line_cubic_4x13.txt",
    "conic_cubic_4x16.txt",
    "graphic_3x6.txt",
    "cube3.txt",
    "cube4.txt",
    "demo_4x7.txt",
    "uniform_2_3.txt",
]
RANDOM_FLAGS = ["--random", "100", "--seed", "1"]


def runs(matdir: Path):
    for path in sorted(matdir.glob("*.txt")):
        if path.name not in SKIP:
            for flags in FAN_MODES:
                yield path, flags
    for name in RANDOM_INPUTS:
        yield matdir / name, RANDOM_FLAGS
    yield matdir / "line_cubic_4x13.txt", [*RANDOM_FLAGS, "--threads", "2"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    matdir = Path(sys.argv[1])
    for path, flags in runs(matdir):
        proc = subprocess.run(
            [sys.executable, "-m", "tropfan", str(path), *flags], capture_output=True
        )
        print(
            path.name,
            " ".join(flags) or "-",
            f"exit {proc.returncode}",
            f"stdout {digest(proc.stdout)}",
            f"stderr {digest(proc.stderr)}",
            sep=" | ",
            flush=True,
        )


if __name__ == "__main__":
    main()
