"""Per-packet latency accounting.

"EtherLoadGen reports mean, median, standard deviation, and tail latency
of network packets in the statistics file.  It also produces a packet drop
percentage and a histogram of packet forwarding latency." (§IV)
"""

from __future__ import annotations

from typing import Dict

from repro.sim.checkpoint import Stateful
from repro.sim.stats import Distribution, Histogram
from repro.sim.ticks import ticks_to_us


class LatencyTracker(Stateful):
    """Round-trip latency distribution plus forwarding-latency histogram."""

    def __init__(self, name: str, histogram_max_us: float = 2000.0,
                 nbuckets: int = 64) -> None:
        self.name = name
        self.rtt_us = Distribution(f"{name}.rtt_us")
        self.histogram = Histogram(f"{name}.rtt_hist_us", 0.0,
                                   histogram_max_us, nbuckets)

    def record(self, sent_tick: int, received_tick: int) -> float:
        """Record one RTT; returns the latency in microseconds."""
        if received_tick < sent_tick:
            raise ValueError(
                f"response at {received_tick} precedes send at {sent_tick}")
        rtt_us = ticks_to_us(received_tick - sent_tick)
        self.rtt_us.sample(rtt_us)
        self.histogram.sample(rtt_us)
        return rtt_us

    def summary(self) -> Dict[str, float]:
        """The statistics-file summary (mean/median/stddev/tails)."""
        return self.rtt_us.summary()

    # -- measurement and checkpoint support --------------------------------

    measured_fields = ("rtt_us", "histogram")
    state_fields = measured_fields
