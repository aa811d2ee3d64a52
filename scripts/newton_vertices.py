#!/usr/bin/env python3
"""Shoot random Newton-polytope vertices for a matrix file or a bundled example.

Usage:
    python scripts/newton_vertices.py --example conic_cubic --count 10 --seed 1
    python scripts/newton_vertices.py path/to/matrix.txt --count 5

The codim-1 cones are packed for shooting before the first shot, on a line
of their own, so the time per vertex leaves the pack out.  The last line is
the process's peak RSS, read as VmHWM from /proc/self/status;
where that file is missing, the line is left out.
"""

import argparse
import time

from tropfan.cli import parse_matrix
from tropfan.data import TANGENT_CONIC_CUBIC_4X16, TANGENT_LINE_CUBIC_4X13
from tropfan.discriminant import random_vertices, setup

EXAMPLES = {
    "conic_cubic": TANGENT_CONIC_CUBIC_4X16,
    "line_cubic": TANGENT_LINE_CUBIC_4X13,
}


def peak_rss_mb():
    """This process's peak RSS (VmHWM) in MB, or None where /proc/self/status is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("matrix", nargs="?", help="matrix file ('m n' header format)")
    parser.add_argument("--example", choices=sorted(EXAMPLES))
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=0)
    args = parser.parse_args()
    if args.example:
        A = EXAMPLES[args.example]
    elif args.matrix:
        with open(args.matrix, encoding="utf-8") as fh:
            A = parse_matrix(fh.read())
    else:
        parser.error("give a matrix file or --example")

    t0 = time.perf_counter()
    prob = setup(A, threads=args.threads)
    print(
        f"fan: {len(prob.fan.maximal_cones)} maximal cones, "
        f"{len(prob.codim1_cones)} of codimension 1 "
        f"({time.perf_counter() - t0:.1f}s)"
    )
    t0 = time.perf_counter()
    packed = prob._packed  # built here, or the first shot would build it
    print(f"pack: {len(packed.forms)} forms ({1e3 * (time.perf_counter() - t0):.3g} ms)")
    t0 = time.perf_counter()
    vertices = random_vertices(prob, args.count, args.seed)
    elapsed = time.perf_counter() - t0
    if vertices:
        print(f"{args.count} vertices, {1e3 * elapsed / args.count:.3g} ms per vertex")
        print("A-degree:", " ".join(map(str, vertices[0].a_degree)))
    fresh = 0
    for v in vertices:
        tag = f"  (= #{v.duplicate_of})" if v.duplicate_of is not None else ""
        fresh += v.duplicate_of is None
        print(" ".join(map(str, v.u)) + tag)
    print(f"{fresh} distinct vertices")
    peak = peak_rss_mb()
    if peak is not None:
        print(f"peak RSS {peak:.1f} MB")


if __name__ == "__main__":
    main()
