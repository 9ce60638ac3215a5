"""Bandwidth-limited interconnect links.

gem5 "connects the I/O bus directly to the memory controller" and the paper
attributes large-packet bottlenecks to "either the I/O bus (that loosely
models a PCIe bus between the NIC and CPU) or ... the memory subsystem"
(§VII.B).  A :class:`BandwidthServer` models such a link: a FIFO pipe with
fixed per-transfer latency and finite bytes/second, tracking a busy horizon
so back-to-back DMA transfers queue behind each other.
"""

from __future__ import annotations

from repro.sim.checkpoint import Stateful
from repro.sim.ports import KIND_BUS, ResponsePort


class BandwidthServer(Stateful):
    """A work-conserving FIFO server over a fixed-bandwidth link.

    Time is integer ticks (picoseconds).  ``transfer`` reserves link time
    for a payload and returns (start_tick, finish_tick); the caller treats
    ``finish`` as the completion time of the transfer.
    """

    def __init__(self, name: str, bytes_per_sec: float, latency_ticks: int = 0) -> None:
        if bytes_per_sec <= 0:
            raise ValueError(f"{name}: bandwidth must be positive")
        if latency_ticks < 0:
            raise ValueError(f"{name}: latency must be non-negative")
        self.name = name
        self.bytes_per_sec = bytes_per_sec
        self.latency_ticks = latency_ticks
        # Devices (DMA engines) bind here to move bytes over this link.
        self.device_side = ResponsePort(self, "device_side", KIND_BUS,
                                        multi=True)
        self._free_at = 0
        self.bytes_moved = 0
        self.transfers = 0

    def occupancy_ticks(self, nbytes: int) -> int:
        """Link occupancy for ``nbytes`` (excludes fixed latency)."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        return round(nbytes * 1e12 / self.bytes_per_sec)

    def transfer(self, now: int, nbytes: int) -> tuple:
        """Reserve the link for ``nbytes`` starting no earlier than ``now``.

        Returns ``(start, finish)`` ticks; ``finish`` includes the fixed
        propagation latency.
        """
        start = max(now, self._free_at)
        busy = self.occupancy_ticks(nbytes)
        self._free_at = start + busy
        self.bytes_moved += nbytes
        self.transfers += 1
        return start, start + busy + self.latency_ticks

    def backlog_ticks(self, now: int) -> int:
        """How far the busy horizon extends beyond ``now``."""
        return max(0, self._free_at - now)

    def utilization(self, elapsed_ticks: int) -> float:
        """Fraction of ``elapsed_ticks`` the link spent transferring."""
        if elapsed_ticks <= 0:
            return 0.0
        busy = self.occupancy_ticks(self.bytes_moved)
        return min(1.0, busy / elapsed_ticks)

    # -- measurement and checkpoint support ----------------------------------

    measured_fields = ("bytes_moved", "transfers")
    state_fields = ("_free_at",) + measured_fields

    def __repr__(self) -> str:
        gbps = self.bytes_per_sec * 8 / 1e9
        return f"<BandwidthServer {self.name} {gbps:.1f}Gbps>"
