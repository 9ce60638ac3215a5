"""Sample statistics: distributions and histograms.

Mirrors the part of gem5's stats system the paper's evaluation relies on
beyond plain counts: distributions with mean/stddev/percentiles, and
histograms (EtherLoadGen reports "mean, median, standard deviation, and
tail latency of network packets ... a packet drop percentage and a
histogram of packet forwarding latency").  A scalar count is a plain
attribute of its component, named in the component's ``measured_fields``
(:class:`repro.sim.checkpoint.Stateful`).
"""

from __future__ import annotations

import math
from typing import Dict, List


class Distribution:
    """Streaming distribution: keeps every sample for exact percentiles.

    Sample counts in this simulator are modest (one per packet), so exact
    storage is affordable and gives exact medians/tails, which matter for the
    latency plots.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []

    def sample(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(value)

    def reset(self) -> None:
        """Reset to the initial (empty) state."""
        self.samples.clear()

    def serialize_state(self):
        return list(self.samples)

    def deserialize_state(self, state) -> None:
        self.samples = [float(x) for x in state]

    @property
    def count(self) -> int:
        """Number of items currently held."""
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return sum(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        var = sum((x - mu) ** 2 for x in self.samples) / (n - 1)
        return math.sqrt(var)

    @property
    def minimum(self) -> float:
        """Smallest sample seen."""
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        """Largest sample seen."""
        return max(self.samples) if self.samples else 0.0

    def percentiles(self, *pcts: float) -> List[float]:
        """Exact percentiles by linear interpolation, one per ``pct`` in
        [0, 100], from one sort of the samples."""
        if not self.samples:
            return [0.0] * len(pcts)
        for pct in pcts:
            if not 0.0 <= pct <= 100.0:
                raise ValueError(f"percentile {pct} out of range")
        data = sorted(self.samples)
        values = []
        for pct in pcts:
            rank = (pct / 100.0) * (len(data) - 1)
            lo, hi = math.floor(rank), math.ceil(rank)
            frac = rank - lo
            values.append(data[lo] if lo == hi
                          else data[lo] * (1 - frac) + data[hi] * frac)
        return values

    def percentile(self, pct: float) -> float:
        """Exact percentile by linear interpolation; pct in [0, 100]."""
        return self.percentiles(pct)[0]

    @property
    def median(self) -> float:
        """50th percentile."""
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(99.0)

    def summary(self) -> Dict[str, float]:
        """The summary EtherLoadGen reports in its statistics file."""
        median, p95, p99 = self.percentiles(50.0, 95.0, 99.0)
        return {
            "count": float(self.count),
            "mean": self.mean,
            "median": median,
            "stddev": self.stddev,
            "min": self.minimum,
            "max": self.maximum,
            "p95": p95,
            "p99": p99,
        }

    def __repr__(self) -> str:
        return f"<Distribution {self.name} n={self.count} mean={self.mean:.3g}>"


class Histogram:
    """Fixed-bucket histogram with overflow/underflow buckets."""

    __slots__ = ("name", "lo", "hi", "nbuckets", "buckets",
                 "underflow", "overflow", "_width")

    def __init__(self, name: str, lo: float, hi: float,
                 nbuckets: int = 32) -> None:
        if hi <= lo:
            raise ValueError(f"histogram range [{lo}, {hi}) is empty")
        if nbuckets < 1:
            raise ValueError("need at least one bucket")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.nbuckets = nbuckets
        self.buckets = [0] * nbuckets
        self.underflow = 0
        self.overflow = 0
        self._width = (hi - lo) / nbuckets

    def sample(self, value: float) -> None:
        """Record one sample."""
        if value < self.lo:
            self.underflow += 1
        elif value >= self.hi:
            self.overflow += 1
        else:
            idx = int((value - self.lo) / self._width)
            # Guard against float edge cases landing exactly on hi.
            idx = min(idx, self.nbuckets - 1)
            self.buckets[idx] += 1

    def reset(self) -> None:
        """Reset to the initial (empty) state."""
        self.buckets = [0] * self.nbuckets
        self.underflow = 0
        self.overflow = 0

    def serialize_state(self):
        return {"buckets": list(self.buckets), "underflow": self.underflow,
                "overflow": self.overflow}

    def deserialize_state(self, state) -> None:
        if len(state["buckets"]) != self.nbuckets:
            raise ValueError(
                f"histogram {self.name}: bucket count changed "
                f"({len(state['buckets'])} -> {self.nbuckets})")
        self.buckets = list(state["buckets"])
        self.underflow = state["underflow"]
        self.overflow = state["overflow"]

    @property
    def count(self) -> int:
        """Number of items currently held."""
        return sum(self.buckets) + self.underflow + self.overflow

    def bucket_edges(self) -> List[float]:
        """The nbuckets+1 bucket boundary values."""
        return [self.lo + i * self._width for i in range(self.nbuckets + 1)]

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict rendering for dumps."""
        return {
            "edges": self.bucket_edges(),
            "counts": list(self.buckets),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"
