"""Self-test of the output gates: a corrupted output is counted as a failure.

Run from the repository root: python3 -m pytest perfbench/test_gates.py
"""

import hashlib
import sys

import gates
import run

sys.path.insert(0, str(run.ROOT / "src"))
from tropfan.data import TANGENT_LINE_CUBIC_4X13  # noqa: E402

A_ROWS = TANGENT_LINE_CUBIC_4X13.entries
# First vertex of the seed-1 stream.
VERTEX = "9 0 3 0 0 6 3 0 0 0 0 0 1"


def _check_disc(tmp_path, vertices, seed=7, head="A-DEGREE 12 10 -6 -6\n"):
    path = tmp_path / "out.txt"
    path.write_text(head + "".join(v + "\n" for v in vertices))
    return gates.check_disc(path, seed, 3, A_ROWS)


def test_disc_gate_accepts_a_well_formed_stream(tmp_path):
    assert _check_disc(tmp_path, [VERTEX] * 3) is None


def test_disc_gate_rejects_corruptions(tmp_path):
    wrong_sum = VERTEX.replace("0 1", "0 2")
    wrong_degree = "8 1" + VERTEX[3:]  # same sum, other A u
    assert _check_disc(tmp_path, [VERTEX, wrong_sum, VERTEX]) is not None
    assert _check_disc(tmp_path, [VERTEX, VERTEX, wrong_degree]) is not None
    assert _check_disc(tmp_path, [VERTEX] * 2) is not None
    assert _check_disc(tmp_path, [VERTEX] * 3, head="A-DEGREE 12 10 -6 -5\n") is not None


def test_disc_seed1_digest_is_checked(tmp_path):
    reason = _check_disc(tmp_path, [VERTEX] * 3, seed=1)
    assert reason is not None and "sha256" in reason


def test_fan_gates(tmp_path):
    body = gates.FAN_HEADER + "RAYS\n1 0\nMAXCONES\n0 1\n"
    path = tmp_path / "fan.txt"
    path.write_text(body)
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert gates.check_fan_full(path, digest, len(body)) is None
    for corrupt in (body.replace("0 1\n", "1 0\n"), body.replace("rays 172", "rays 173")):
        path.write_text(corrupt)
        assert gates.check_fan_full(path, digest, len(body)) is not None


def test_corrupted_output_counts_as_failed_run(tmp_path, monkeypatch):
    """Run.attempt gates each child's output; a corrupted one is a failed attempt."""
    monkeypatch.setattr(run, "WORK", tmp_path)

    def fake_spawn(spec, timeout):
        with open(spec["output"], "w") as fh:
            fh.write(gates.FAN_HEADER.replace("rays 172", "rays 17"))
        return run.Child(1.0, None)

    monkeypatch.setattr(run, "spawn", fake_spawn)
    bench_run = run.Run("fan-quadrics-full", 1)
    try:
        bench_run.attempt()
        summary = bench_run.summary({})
    finally:
        bench_run.close()
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (1, 1, False)
