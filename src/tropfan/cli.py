"""Command-line front end.

Reads an integer matrix, computes the cyclic Bergman fan of its column
matroid (or of the dual matroid with --dual), and prints rays, maximal cones,
optional matroid reports, and the Bergman-fan comparison.  With --random N
the tool switches to the discriminant pipeline and prints ray-shot Newton
polytope vertices instead.  Output is byte-deterministic given the input,
flags, and seed.

Every fan mode but --counts-only spills its cones to an anonymous file in
TMPDIR, width x itemsize bytes per cone (6.7 MB on the 5x20 dual, 7.1 GB on
the 6x30 dual), read back in blocks once the header is out, again for --compare.

Matrix file format: comments start with '#', blank lines are ignored, the
first data line is 'm n', followed by m rows of n integers, each an optional
sign and ASCII digits.

Exit codes: 0 success, 1 parse or I/O failure, 2 violated preconditions
(loops, coloops, rank or rowspace requirements, bad flag combinations).
"""

from __future__ import annotations

import os
import sys
import tempfile
from itertools import cycle

from .discriminant import random_vertices, setup
from .errors import ParseError, TropfanError
from .exact import IntMat
from .fan import compare_with_bergman, cyclic_bergman_fan, fan_counts
from .matroid import Matroid


def parse_matrix(text: str) -> IntMat:
    """Parse the matrix file format; diagnostics carry 1-based line numbers."""
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        # an optional sign and ASCII digits: int() would also read "1_0" and non-ASCII digits
        integers = all(x.isascii() and (x[1:] if x[0] in "+-" else x).isdigit() for x in parts)
        if header is None:
            if len(parts) != 2:
                raise ParseError(lineno, "expected header 'm n'")
            if not integers:
                raise ParseError(lineno, "header entries must be integers")
            header = (int(parts[0]), int(parts[1]))
            if header[0] < 1 or header[1] < 1:
                raise ParseError(lineno, "dimensions must be positive")
            continue
        if len(rows) == header[0]:
            raise ParseError(lineno, "extra data after the last matrix row")
        if len(parts) != header[1]:
            raise ParseError(
                lineno, f"expected {header[1]} entries, found {len(parts)}"
            )
        if not integers:
            raise ParseError(lineno, "matrix entries must be integers")
        rows.append([int(x) for x in parts])
    if header is None:
        raise ParseError(1, "empty input")
    if len(rows) != header[0]:
        raise ParseError(1, f"expected {header[0]} rows, found {len(rows)}")
    return IntMat.from_rows(rows)


def build_config(argv) -> argparse.Namespace:
    import argparse  # here, so that the library calls never load it (or gettext)

    parser = argparse.ArgumentParser(
        prog="tropfan",
        description="Cyclic Bergman fans of integer matrices and "
        "Newton-polytope vertices of A-discriminants.",
    )
    parser.add_argument("matrix", help="path to the input matrix file")
    parser.add_argument(
        "--dual", action="store_true", help="compute the fan of the dual matroid"
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="group maximal cones into Bergman-fan classes",
    )
    parser.add_argument(
        "--random",
        type=int,
        metavar="N",
        default=None,
        help="discriminant mode: shoot N random Newton-polytope vertices",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for --random")
    parser.add_argument("--bases", action="store_true", help="report all bases")
    parser.add_argument("--circuits", action="store_true", help="report all circuits")
    parser.add_argument(
        "--tutte", action="store_true", help="report the Tutte polynomial"
    )
    parser.add_argument(
        "--counts-only",
        action="store_true",
        help="print only the header counts, no section bodies",
    )
    parser.add_argument("--output", metavar="PATH", default=None)
    parser.add_argument(
        "--threads",
        type=int,
        default=os.environ.get("TROPFAN_THREADS", "0"),
        help="worker processes for per-basis work, capped at the CPU count "
        "(0 = sequential canonical mode)",
    )
    args = parser.parse_args(argv)
    if args.random is not None:
        for flag in ("dual", "compare", "bases", "circuits", "tutte", "counts_only"):
            if getattr(args, flag):
                parser.error(f"--{flag.replace('_', '-')} requires fan mode, not --random")
        if args.random < 0:
            parser.error("--random takes a nonnegative count")
    if args.compare and args.counts_only:
        parser.error("--compare needs the cones, which --counts-only does not store")
    if args.threads < 0:
        parser.error("--threads takes a nonnegative count")
    return args


def _write_fan(out, args: argparse.Namespace, M: Matroid):
    header = "n {}\nm {}\nrays {}\nmaxcones {}\n".format
    if args.counts_only:
        out.write(header(M.n, M.rank, *fan_counts(M, threads=args.threads)))
        return
    with tempfile.TemporaryFile() as spill:
        fan = cyclic_bergman_fan(M, threads=args.threads, spill=spill)
        nrays, ncones = len(fan.rays), len(fan.maximal_cones)
        out.write(header(M.n, M.rank, nrays, ncones))
        if args.bases:
            out.write("BASES\n")
            out.writelines(" ".join(map(str, B)) + "\n" for B in M.bases)
        if args.circuits:
            out.write("CIRCUITS\n")
            out.writelines(" ".join(map(str, C)) + "\n" for C in M.circuits())
        if args.tutte:
            out.write("TUTTE\n")
            for (i, j), c in sorted(M.tutte_polynomial().items()):
                out.write(f"x^{i} y^{j} : {c}\n")
        out.write("RAYS\n")
        out.writelines(" ".join(map(str, ray)) + "\n" for ray in fan.rays)
        out.write("MAXCONES\n")
        width = M.rank - 1
        if not width:  # rank-1 cones have no rays (and no blocks): one empty line each
            out.write("\n" * ncones)
        names = [f"{i} " for i in range(nrays)]  # "i\n" in the last column
        columns = [names] * (width - 1) + [[f"{i}\n" for i in range(nrays)]]
        for block in fan.maximal_cones.blocks(1024):  # one join and one write each
            out.write("".join(map(list.__getitem__, cycle(columns), block)))
        if args.compare:  # a second pass over the spill
            out.write("BERGMAN\n")
            out.writelines(" ".join(map(str, cls)) + "\n" for cls in compare_with_bergman(fan, M))


def _write_discriminant(out, args: argparse.Namespace, A: IntMat):
    prob = setup(A, threads=args.threads, require_spanned=args.random > 0)
    vertices = random_vertices(prob, args.random, args.seed)
    a_degree = vertices[0].a_degree if vertices else ()
    out.write(" ".join(["A-DEGREE", *map(str, a_degree)]) + "\n")
    for v in vertices:
        out.write(" ".join(map(str, v.u)) + "\n")


def _write(out, args: argparse.Namespace, A: IntMat):
    if args.random is not None:
        _write_discriminant(out, args, A)
    else:
        M = Matroid.from_matrix(A, strict=False)
        if args.dual:
            M = M.dual()
        _write_fan(out, args, M)


def run(args: argparse.Namespace) -> int:
    try:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            A = parse_matrix(fh.read())
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # --output is written to a temporary file beside the target and renamed
    # over it only on success, so a failed run never leaves a partial file.
    tmp = None
    try:
        if args.output is None:
            _write(sys.stdout, args, A)
        else:
            tmp = f"{args.output}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as out:
                _write(out, args, A)
            os.replace(tmp, args.output)
            tmp = None
    except TropfanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a write error, or a --threads worker that died
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)
    return 0


def main(argv=None) -> int:
    return run(build_config(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main())
