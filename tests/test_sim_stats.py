"""Unit tests for the statistics framework."""

import builtins
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import stats
from repro.sim.stats import Distribution, Histogram


def _reference_percentile(samples, pct):
    """One percentile from its own sort: the interpolation every
    summary must reproduce exactly."""
    data = builtins.sorted(samples)
    if len(data) == 1:
        return data[0]
    rank = (pct / 100.0) * (len(data) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    if lo == hi:
        return data[lo]
    frac = rank - lo
    return data[lo] * (1 - frac) + data[hi] * frac


class TestDistribution:
    def test_empty_summary_is_zeroes(self):
        d = Distribution("d")
        assert d.mean == 0.0
        assert d.median == 0.0
        assert d.stddev == 0.0

    def test_mean(self):
        d = Distribution("d")
        for x in (1, 2, 3, 4):
            d.sample(x)
        assert d.mean == pytest.approx(2.5)

    def test_median_odd(self):
        d = Distribution("d")
        for x in (5, 1, 3):
            d.sample(x)
        assert d.median == pytest.approx(3.0)

    def test_median_even_interpolates(self):
        d = Distribution("d")
        for x in (1, 2, 3, 4):
            d.sample(x)
        assert d.median == pytest.approx(2.5)

    def test_stddev_known_value(self):
        d = Distribution("d")
        for x in (2, 4, 4, 4, 5, 5, 7, 9):
            d.sample(x)
        # Sample stddev of this classic set is ~2.138.
        assert d.stddev == pytest.approx(2.138, abs=0.001)

    def test_percentile_bounds(self):
        d = Distribution("d")
        for x in range(1, 101):
            d.sample(x)
        assert d.percentile(0) == 1
        assert d.percentile(100) == 100

    def test_p99(self):
        d = Distribution("d")
        for x in range(1, 101):
            d.sample(x)
        assert d.p99 == pytest.approx(99.01, abs=0.1)

    def test_percentile_out_of_range(self):
        d = Distribution("d")
        d.sample(1)
        with pytest.raises(ValueError):
            d.percentile(101)

    def test_min_max(self):
        d = Distribution("d")
        for x in (4, -2, 9):
            d.sample(x)
        assert d.minimum == -2
        assert d.maximum == 9

    def test_summary_keys(self):
        d = Distribution("d")
        d.sample(1.0)
        summary = d.summary()
        for key in ("count", "mean", "median", "stddev", "min", "max",
                    "p95", "p99"):
            assert key in summary

    def test_reset(self):
        d = Distribution("d")
        d.sample(1.0)
        d.reset()
        assert d.count == 0

    def test_summary_sorts_once(self, monkeypatch):
        calls = []

        def counting_sorted(data, **kwargs):
            calls.append(len(data))
            return builtins.sorted(data, **kwargs)

        monkeypatch.setattr(stats, "sorted", counting_sorted, raising=False)
        d = Distribution("d")
        for x in range(1000):
            d.sample((x * 7919) % 1000)
        d.summary()
        assert calls == [1000]


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=300))
@settings(max_examples=50)
def test_summary_equals_each_percentile(samples):
    d = Distribution("d")
    for x in samples:
        d.sample(x)
    summary = d.summary()
    for key, pct in (("median", 50.0), ("p95", 95.0), ("p99", 99.0)):
        assert summary[key] == _reference_percentile(samples, pct)
        assert d.percentile(pct) == summary[key]
    assert d.percentiles(50.0, 99.9) == [
        _reference_percentile(samples, 50.0),
        _reference_percentile(samples, 99.9)]


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram("h", 0.0, 100.0, nbuckets=10)
        h.sample(5)
        h.sample(95)
        assert h.buckets[0] == 1
        assert h.buckets[9] == 1

    def test_underflow_overflow(self):
        h = Histogram("h", 0.0, 10.0, nbuckets=2)
        h.sample(-1)
        h.sample(100)
        assert h.underflow == 1
        assert h.overflow == 1
        assert h.count == 2

    def test_upper_edge_is_overflow(self):
        h = Histogram("h", 0.0, 10.0, nbuckets=2)
        h.sample(10.0)
        assert h.overflow == 1

    def test_edges(self):
        h = Histogram("h", 0.0, 10.0, nbuckets=2)
        assert h.bucket_edges() == [0.0, 5.0, 10.0]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", 5.0, 5.0)

    def test_as_dict(self):
        h = Histogram("h", 0.0, 4.0, nbuckets=4)
        h.sample(1.5)
        data = h.as_dict()
        assert data["counts"][1] == 1
        assert len(data["edges"]) == 5

    def test_reset(self):
        h = Histogram("h", 0.0, 4.0, nbuckets=4)
        h.sample(1.0)
        h.reset()
        assert h.count == 0
