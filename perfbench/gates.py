"""Pinned reference results that every benchmark run's output must match.

Each check returns None when the output is correct and a one-line reason
when it is not; run.py counts any reason as a failed run.
"""

import hashlib

FAN_HEADER = "n 20\nm 15\nrays 172\nmaxcones 475722\n"
# Full `--dual` output for the 5x20 quadrics matrix, with every RAYS and
# MAXCONES line.
FAN_FULL_SHA256 = "49cbef16ecf3d939a9d664c5f84525eb89f53d06afee691c39829de79a4ef44d"
FAN_FULL_BYTES = 17_487_608

DISC_A_DEGREE = (12, 10, -6, -6)
DISC_COORDINATE_SUM = 22
# `--random 100 --seed 1` output for the 4x13 line/cubic matrix.
DISC_SEED1_SHA256 = "4ff7da40a70f3ff35f4e5723e740bc53a3413950edddf9790b40a00188330614"


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_fan_full(path, expected_sha256=FAN_FULL_SHA256, expected_bytes=FAN_FULL_BYTES):
    data = _read(path)
    if not data.startswith(FAN_HEADER.encode()):
        return "fan header differs from n 20 / m 15 / rays 172 / maxcones 475722"
    if len(data) != expected_bytes:
        return f"fan output has {len(data)} bytes, expected {expected_bytes}"
    if hashlib.sha256(data).hexdigest() != expected_sha256:
        return "fan output sha256 differs from the pinned digest"
    return None


def check_disc(path, seed, count, A_rows):
    """A-degree line, then `count` vertices u with sum 22 and A u = A-degree."""
    data = _read(path)
    lines = data.decode("utf-8", errors="replace").split("\n")
    if lines[-1] != "":
        return "vertex output does not end with a newline"
    lines.pop()
    if not lines or lines[0] != "A-DEGREE " + " ".join(map(str, DISC_A_DEGREE)):
        return "first line is not A-DEGREE " + " ".join(map(str, DISC_A_DEGREE))
    if len(lines) != count + 1:
        return f"expected {count} vertex lines, found {len(lines) - 1}"
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            u = [int(x) for x in line.split()]
        except ValueError:
            return f"line {lineno} is not a list of integers"
        if len(u) != len(A_rows[0]):
            return f"line {lineno} has {len(u)} coordinates"
        if sum(u) != DISC_COORDINATE_SUM:
            return f"line {lineno} has coordinate sum {sum(u)}, expected {DISC_COORDINATE_SUM}"
        degree = tuple(sum(a * x for a, x in zip(row, u)) for row in A_rows)
        if degree != DISC_A_DEGREE:
            return f"line {lineno} has A u = {degree}, expected the A-degree"
    if seed == 1 and hashlib.sha256(data).hexdigest() != DISC_SEED1_SHA256:
        return "seed-1 vertex stream sha256 differs from the pinned digest"
    return None
