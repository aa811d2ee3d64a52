"""Self-test of the per-layer split computed from traced spans.

Run from the repository root: python3 -m pytest perfbench/test_tracer.py
"""

import pytest

import tracer


def test_setup_split_adds_up_and_fan_share_is_the_fan_only():
    # (parent, name, start, end); parents precede their children.
    spans = [
        (-1, "discriminant.setup", 0.0, 10.0),
        (0, "exact.rank", 0.0, 1.0),
        (0, "matroid.from_matrix", 1.0, 1.5),
        (0, "fan.cyclic_bergman_fan", 1.5, 4.0),
        (3, "matroid.fundamental_circuit_masks", 2.0, 3.0),
        (0, "exact.det_of_columns", 4.0, 6.0),
    ]
    out = tracer.layer_metrics({"run_id": "t", "counters": {}, "spans": spans})
    assert out["discriminant.setup_fan_s"] == pytest.approx(2.5)
    assert out["discriminant.setup_exact_s"] == pytest.approx(3.0)
    assert out["discriminant.setup_self_s"] == pytest.approx(4.5)
    parts = ("setup_self_s", "setup_fan_s", "setup_exact_s")
    assert sum(out["discriminant." + p] for p in parts) == pytest.approx(
        out["discriminant.setup_s"]
    )
