"""Self-test of the scaling of raw times to the reference speed.

Run from the repository root: python3 -m pytest perfbench/test_probe.py
"""

import pytest

import run


def _probe(samples):
    probe = run.SpeedProbe()
    probe.samples = samples
    return probe


def test_scale_uses_the_probes_inside_the_interval():
    slow = 2 * run.PROBE_REF_S
    samples = [(t, run.PROBE_REF_S) for t in range(10)] + [(t, slow) for t in range(10, 20)]
    # Ten probes at twice the reference time: the host ran at half speed.
    assert _probe(samples).scale(10, 19) == pytest.approx(0.5)
    assert _probe(samples).scale(0, 9) == pytest.approx(1.0)


def test_short_interval_uses_the_nearest_probes():
    samples = [(t, run.PROBE_REF_S * (1 + t)) for t in range(10)]
    nearest = [run.PROBE_REF_S * (1 + t) for t in (2, 3, 4, 5, 6)]
    expected = run.PROBE_REF_S / (sum(nearest) / len(nearest))
    assert _probe(samples).scale(4.1, 4.2) == pytest.approx(expected)


def test_block_records_at_least_one_probe():
    with run.SpeedProbe() as probe:
        pass
    assert len(probe.samples) >= 1
