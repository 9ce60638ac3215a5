"""Multi-channel DRAM timing model.

Channels interleave at line granularity; each channel has banks with an
open-row policy.  A row hit costs CAS only; a row miss pays
precharge + activate + CAS.  Channel bandwidth is finite, so a saturated
channel queues requests.  This is the level of fidelity the paper's memory
channel sweep (Fig 17a-c) exercises: more channels add bandwidth, but
spreading a packet's lines across many channels costs row locality, which
is why the paper sees MSB degrade from 8 to 16 channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.checkpoint import Stateful


@dataclass(frozen=True)
class DramConfig:
    """DDR4-style channel/bank geometry and timings (nanoseconds)."""

    channels: int = 2
    banks_per_channel: int = 16
    row_size: int = 2048              # bytes of one row per channel
    line_size: int = 64
    t_cas_ns: float = 14.0            # row-hit access
    t_row_miss_ns: float = 42.0       # precharge + activate + CAS
    channel_bw_bytes_per_ns: float = 19.2   # DDR4-2400 x64: 19.2 GB/s
    queue_depth: int = 32

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("need at least one channel")
        if self.banks_per_channel < 1:
            raise ValueError("need at least one bank")
        if self.line_size <= 0:
            raise ValueError(f"line_size must be positive, got {self.line_size}")
        if self.row_size < self.line_size:
            raise ValueError("row must hold at least one line")
        if self.channel_bw_bytes_per_ns <= 0:
            raise ValueError(
                f"channel_bw_bytes_per_ns must be positive, got "
                f"{self.channel_bw_bytes_per_ns}")
        for label in ("t_cas_ns", "t_row_miss_ns", "queue_depth"):
            if getattr(self, label) < 0:
                raise ValueError(
                    f"{label} cannot be negative, got {getattr(self, label)}")


class DramModel(Stateful):
    """Tracks per-bank open rows and per-channel service time.

    Time is float nanoseconds internally; callers convert to ticks.  The
    model is a service-curve approximation: each access computes its latency
    from row state and the channel's queueing backlog, then advances the
    channel's busy horizon by the line transfer time.
    """

    def __init__(self, config: DramConfig, name: str = "dram") -> None:
        self.config = config
        self.name = name
        # open_rows[channel][bank] -> row id (or -1)
        self._open_rows: List[List[int]] = [
            [-1] * config.banks_per_channel for _ in range(config.channels)]
        self._channel_free_at: List[float] = [0.0] * config.channels
        self._lines_per_row = config.row_size // config.line_size
        self._transfer_ns = config.line_size / config.channel_bw_bytes_per_ns
        # Bound the modelled backlog: a real controller back-pressures the
        # requester once its queue fills rather than growing without limit.
        self._max_queue_ns = config.queue_depth * (
            config.t_cas_ns + self._transfer_ns)
        self.row_hits = 0
        self.row_misses = 0
        self.reads = 0
        self.writes = 0
        self.busy_ns = 0.0

    def _map(self, addr: int) -> tuple:
        """(channel, bank, row) for a line address."""
        cfg = self.config
        line = addr // cfg.line_size
        channel = line % cfg.channels
        row = line // cfg.channels // self._lines_per_row
        return channel, row % cfg.banks_per_channel, row

    def access(self, addr: int, now_ns: float, is_write: bool = False) -> float:
        """Service one line access; returns its latency in nanoseconds."""
        channel, bank, row = self._map(addr)
        if is_write:
            self.writes += 1
        else:
            self.reads += 1

        open_rows = self._open_rows[channel]
        if open_rows[bank] == row:
            self.row_hits += 1
            access_ns = self.config.t_cas_ns
        else:
            self.row_misses += 1
            access_ns = self.config.t_row_miss_ns
            open_rows[bank] = row

        transfer_ns = self._transfer_ns
        start = max(now_ns, self._channel_free_at[channel])
        queue_ns = min(start - now_ns, self._max_queue_ns)
        self._channel_free_at[channel] = start + transfer_ns
        self.busy_ns += transfer_ns
        return queue_ns + access_ns + transfer_ns

    @property
    def row_hit_rate(self) -> float:
        """Row-buffer hits as a fraction of accesses."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def peak_bandwidth_bytes_per_ns(self) -> float:
        """Aggregate channel bandwidth."""
        return self.config.channels * self.config.channel_bw_bytes_per_ns

    # -- measurement and checkpoint support ----------------------------------

    measured_fields = ("row_hits", "row_misses", "reads", "writes",
                       "busy_ns")
    state_fields = ("_open_rows", "_channel_free_at") + measured_fields

    def deserialize_state(self, state: dict) -> None:
        if len(state["open_rows"]) != self.config.channels:
            raise ValueError(
                f"{self.name}: channel count changed "
                f"({len(state['open_rows'])} -> {self.config.channels})")
        super().deserialize_state(state)
