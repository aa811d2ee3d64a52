#!/usr/bin/env python3
"""Dump the bundled example matrices as CLI input files.

Usage: python scripts/write_example_matrices.py [outdir]
"""

import sys
from pathlib import Path

from tropfan.data import (
    DEMO_4X7,
    GRAPHIC_3X6,
    TANGENT_CONIC_CUBIC_4X16,
    TANGENT_LINE_CUBIC_4X13,
    TANGENT_LINE_CUBIC_GALE_9X13,
    TANGENT_QUADRICS_5X20,
    TANGENT_THREE_QUADRICS_6X30,
    UNIFORM_2_3,
    cube_matrix,
)
from tropfan.exact import IntMat

#: conic/cubic with row 2 doubled: the same matroid, but every maximal minor
#: is even, so the columns do not span Z^4 and --random N > 0 exits 2
CONIC_CUBIC_UNSPANNED_4X16 = IntMat.from_rows(
    [
        [2 * x for x in row] if i == 2 else row
        for i, row in enumerate(TANGENT_CONIC_CUBIC_4X16.entries)
    ]
)

EXAMPLES = {
    "uniform_2_3": UNIFORM_2_3,
    "graphic_3x6": GRAPHIC_3X6,
    "demo_4x7": DEMO_4X7,
    "cube3": cube_matrix(3),
    "cube4": cube_matrix(4),
    "line_cubic_4x13": TANGENT_LINE_CUBIC_4X13,
    "line_cubic_gale_9x13": TANGENT_LINE_CUBIC_GALE_9X13,
    "quadrics_5x20": TANGENT_QUADRICS_5X20,
    "conic_cubic_4x16": TANGENT_CONIC_CUBIC_4X16,
    "conic_cubic_unspanned_4x16": CONIC_CUBIC_UNSPANNED_4X16,
    "three_quadrics_6x30": TANGENT_THREE_QUADRICS_6X30,
}


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("example_matrices")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, A in EXAMPLES.items():
        lines = [f"# {name}", f"{A.rows} {A.cols}"]
        lines += [" ".join(map(str, row)) for row in A.entries]
        (outdir / f"{name}.txt").write_text("\n".join(lines) + "\n")
        print(f"wrote {outdir / f'{name}.txt'}")


if __name__ == "__main__":
    main()
