#!/usr/bin/env python3
"""Print one digest line per CLI run over the example matrices.

Usage: PYTHONPATH=src python scripts/cli_digests.py MATDIR

MATDIR holds the files written by scripts/write_example_matrices.py.  Every
one of them but those in SKIP is run in each fan mode below, and the inputs
of RANDOM_INPUTS also with --random 100 --seed 1: line/cubic, conic/cubic,
graphic_3x6, cube3 and cube4 print vertices, demo_4x7, uniform_2_3 and
conic_cubic_unspanned_4x16 exit 2 with an error (the last before it builds
the fan).  Line/cubic also runs with --random 100 --seed 1 --threads 2,
which builds setup's fan in worker processes, cube4 with --random 100
--seed 3, whose stream holds two objectives that tie exactly,
conic_cubic_unspanned_4x16 with --random 0, which builds the fan and its
codim-1 cones (kappa scaled by the minors' gcd 2) and exits 0, and
line/cubic with --random 250 --seed 2 and cube4 with --random 250 --seed 3,
whose objectives span more than one shooting batch (SHOT_CHUNK).  Each
input run in the fan modes also runs OUTPUT_MODES with --output FILE, so
the full fan's spilled body, and the Bergman classes read back from the
spill, sequential and with --threads 2, are checked through a file as well
as through stdout: 139 runs over the 11 files the script writes.  Each line
gives the input, the flags, the exit code and the sha256 of stdout and of
stderr, and for an
--output run that of the file written (of nothing if none was).  If an
input the runs read is missing, the script prints one error line and exits
2 before it runs anything.  The CLI
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
import tempfile
from pathlib import Path

SKIP = {
    "three_quadrics_6x30.txt",  # the stress case: minutes even with --counts-only
    "conic_cubic_unspanned_4x16.txt",  # the matroid of conic_cubic_4x16, run above
}
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
OUTPUT_MODES = [
    ["--dual"],
    ["--dual", "--bases", "--circuits", "--tutte"],
    ["--dual", "--compare"],
    ["--dual", "--compare", "--threads", "2"],
]
RANDOM_INPUTS = [
    "line_cubic_4x13.txt",
    "conic_cubic_4x16.txt",
    "graphic_3x6.txt",
    "cube3.txt",
    "cube4.txt",
    "demo_4x7.txt",
    "uniform_2_3.txt",
    "conic_cubic_unspanned_4x16.txt",
]
RANDOM_FLAGS = ["--random", "100", "--seed", "1"]


def runs(matdir: Path):
    """(input, flags, whether the run writes --output FILE) per run."""
    for path in sorted(matdir.glob("*.txt")):
        if path.name not in SKIP:
            for flags in FAN_MODES:
                yield path, flags, False
            for flags in OUTPUT_MODES:
                yield path, flags, True
    for name in RANDOM_INPUTS:
        yield matdir / name, RANDOM_FLAGS, False
    yield matdir / "line_cubic_4x13.txt", [*RANDOM_FLAGS, "--threads", "2"], False
    yield matdir / "cube4.txt", ["--random", "100", "--seed", "3"], False
    yield matdir / "line_cubic_4x13.txt", ["--random", "250", "--seed", "2"], False
    yield matdir / "cube4.txt", ["--random", "250", "--seed", "3"], False
    yield matdir / "conic_cubic_unspanned_4x16.txt", ["--random", "0"], False


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    matdir = Path(sys.argv[1])
    # a missing input would only print exit-1 lines, and two trees would diff alike
    missing = sorted({path.name for path, _, _ in runs(matdir) if not path.is_file()})
    if missing:
        print(
            f"error: {matdir} lacks {', '.join(missing)}; "
            "write them with scripts/write_example_matrices.py MATDIR",
            file=sys.stderr,
        )
        sys.exit(2)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out.txt"
        for path, flags, to_file in runs(matdir):
            output = ["--output", str(target)] if to_file else []
            proc = subprocess.run(
                [sys.executable, "-m", "tropfan", str(path), *flags, *output],
                capture_output=True,
            )
            fields = [f"stdout {digest(proc.stdout)}", f"stderr {digest(proc.stderr)}"]
            if to_file:
                written = target.read_bytes() if target.exists() else b""
                fields.append(f"file {digest(written)}")
                target.unlink(missing_ok=True)
            print(
                path.name,
                " ".join([*flags, *(["--output", "FILE"] if to_file else [])]) or "-",
                f"exit {proc.returncode}",
                *fields,
                sep=" | ",
                flush=True,
            )


if __name__ == "__main__":
    main()
