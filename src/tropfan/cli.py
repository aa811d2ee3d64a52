"""Command-line front end.

Reads an integer matrix, computes the cyclic Bergman fan of its column
matroid (or of the dual matroid with --dual), and prints rays, maximal cones,
optional matroid reports, and the Bergman-fan comparison.  With --random N
the tool switches to the discriminant pipeline and prints ray-shot Newton
polytope vertices instead.  Output is byte-deterministic given the input,
flags, and seed.

Matrix file format: comments start with '#', blank lines are ignored, the
first data line is 'm n', followed by m rows of n integers.

Exit codes: 0 success, 1 parse or I/O failure, 2 violated preconditions
(loops, coloops, rank or rowspace requirements, bad flag combinations).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures.process import BrokenProcessPool

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
        if header is None:
            if len(parts) != 2:
                raise ParseError(lineno, "expected header 'm n'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError(lineno, "header entries must be integers") from None
            if header[0] < 1 or header[1] < 1:
                raise ParseError(lineno, "dimensions must be positive")
            continue
        if len(rows) == header[0]:
            raise ParseError(lineno, "extra data after the last matrix row")
        if len(parts) != header[1]:
            raise ParseError(
                lineno, f"expected {header[1]} entries, found {len(parts)}"
            )
        try:
            rows.append([int(x) for x in parts])
        except ValueError:
            raise ParseError(lineno, "matrix entries must be integers") from None
    if header is None:
        raise ParseError(1, "empty input")
    if len(rows) != header[0]:
        raise ParseError(1, f"expected {header[0]} rows, found {len(rows)}")
    return IntMat.from_rows(rows)


def build_config(argv) -> argparse.Namespace:
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
    if args.counts_only:
        nrays, ncones = fan_counts(M, threads=args.threads)
    else:
        fan = cyclic_bergman_fan(M, threads=args.threads)
        nrays, ncones = len(fan.rays), len(fan.maximal_cones)
    out.write(f"n {M.n}\nm {M.rank}\nrays {nrays}\nmaxcones {ncones}\n")
    if args.counts_only:
        return
    if args.bases:
        out.write("BASES\n")
        for B in M.bases:
            out.write(" ".join(map(str, B)) + "\n")
    if args.circuits:
        out.write("CIRCUITS\n")
        for C in M.circuits():
            out.write(" ".join(map(str, C)) + "\n")
    if args.tutte:
        out.write("TUTTE\n")
        for (i, j), c in sorted(M.tutte_polynomial().items()):
            out.write(f"x^{i} y^{j} : {c}\n")
    out.write("RAYS\n")
    for ray in fan.rays:
        out.write(" ".join(map(str, ray)) + "\n")
    out.write("MAXCONES\n")
    name = [str(i) for i in range(len(fan.rays))].__getitem__
    width = M.rank - 1
    flat = fan.maximal_cones.flat
    # one join and one write per 1,024 cones, not the whole body as one string;
    # rank-1 cones have no rays (width 0), so their empty lines are written apart
    if not width:
        out.write("\n" * ncones)
    else:
        for i in range(0, len(flat), 1024 * width):
            block = map(name, flat[i : i + 1024 * width])
            out.write("".join(" ".join(t) + "\n" for t in zip(*[block] * width)))
    if args.compare:
        classes = compare_with_bergman(fan, M)
        out.write("BERGMAN\n")
        for cls in classes:
            out.write(" ".join(map(str, cls)) + "\n")


def _write_discriminant(out, args: argparse.Namespace, A: IntMat):
    prob = setup(A, threads=args.threads)
    vertices = random_vertices(prob, args.random, args.seed)
    if vertices:
        a_degree = vertices[0].a_degree
        out.write("A-DEGREE " + " ".join(map(str, a_degree)) + "\n")
    else:
        out.write("A-DEGREE\n")
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
    except (OSError, BrokenProcessPool) as exc:  # a --threads worker died
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
