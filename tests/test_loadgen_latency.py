"""Unit tests for the latency tracker."""

import pytest

from repro.loadgen.latency import LatencyTracker
from repro.sim.ticks import us_to_ticks


def test_record_returns_microseconds():
    tracker = LatencyTracker("t")
    rtt = tracker.record(0, us_to_ticks(400))
    assert rtt == pytest.approx(400.0)


def test_summary_statistics():
    tracker = LatencyTracker("t")
    for us in (100, 200, 300):
        tracker.record(0, us_to_ticks(us))
    summary = tracker.summary()
    assert summary["count"] == 3
    assert summary["mean"] == pytest.approx(200.0)
    assert summary["median"] == pytest.approx(200.0)
    assert summary["min"] == pytest.approx(100.0)
    assert summary["max"] == pytest.approx(300.0)


def test_histogram_populated():
    tracker = LatencyTracker("t", histogram_max_us=1000.0, nbuckets=10)
    tracker.record(0, us_to_ticks(150))
    assert tracker.histogram.buckets[1] == 1


def test_histogram_overflow_for_huge_latency():
    tracker = LatencyTracker("t", histogram_max_us=100.0)
    tracker.record(0, us_to_ticks(500))
    assert tracker.histogram.overflow == 1


def test_negative_rtt_rejected():
    tracker = LatencyTracker("t")
    with pytest.raises(ValueError):
        tracker.record(100, 50)


def test_reset():
    tracker = LatencyTracker("t")
    tracker.record(0, us_to_ticks(100))
    tracker.reset_measurement()
    assert tracker.summary()["count"] == 0
    assert tracker.histogram.count == 0
