"""Descriptor rings and the NIC's on-chip descriptor cache.

"NIC devices keep a handful of available descriptors ... on an on-chip
cache which is called descriptor cache ... The NIC gradually writes back
the descriptor cache to the CPU memory (using DMA), and then the CPU is
notified of received packets."  The paper's fix (§III.A.3) is making the
writeback threshold a parameter, because with a polling-mode driver the
kernel never programs the threshold registers and the baseline NIC model
degenerates to writing back only when *all* descriptors are used — DMAing
packets "in large batches (32 to 64 packets), which causes unrealistic
pressure on the CPU memory subsystem".

An :class:`RxRing` tracks descriptors through three ownership stages:

    driver-posted (NIC may fill) -> filled (awaiting writeback) -> completed

A :class:`TxRing` tracks packets queued by the driver until the NIC's DMA
engine reads and transmits them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.mem.address import Region
from repro.net.packet import Packet
from repro.sim.checkpoint import Stateful

DESC_SIZE = 16   # legacy e1000 descriptor: 16 bytes


class RxDescriptor:
    """A filled RX descriptor: which buffer holds which packet.

    Slotted (one instance per received packet) with dataclass-style
    equality for tests that compare descriptors structurally.
    """

    __slots__ = ("index", "buffer_addr", "packet")

    def __init__(self, index: int, buffer_addr: int,
                 packet: Packet) -> None:
        self.index = index
        self.buffer_addr = buffer_addr
        self.packet = packet

    def __eq__(self, other) -> bool:
        if other.__class__ is not RxDescriptor:
            return NotImplemented
        return (self.index, self.buffer_addr, self.packet) == \
               (other.index, other.buffer_addr, other.packet)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"RxDescriptor(index={self.index!r}, "
                f"buffer_addr={self.buffer_addr!r}, "
                f"packet={self.packet!r})")


class DescriptorRing(Stateful):
    """Shared geometry for RX/TX rings: ring memory + descriptor addresses."""

    def __init__(self, size: int, region: Region) -> None:
        if size <= 0:
            raise ValueError("ring size must be positive")
        if region.size < size * DESC_SIZE:
            raise ValueError(
                f"region {region.name} ({region.size}B) too small for "
                f"{size} descriptors")
        self.size = size
        self.region = region
        # Rings are addressed through their backing region, so the region
        # name doubles as the ring's label in the wiring graph.
        self.name = region.name

    def desc_addr(self, index: int) -> int:
        """Memory address of descriptor ``index`` (for cache modelling)."""
        return self.region.addr((index % self.size) * DESC_SIZE)


class RxRing(DescriptorRing):
    """The receive ring with descriptor-cache writeback semantics."""

    def __init__(self, size: int, region: Region,
                 writeback_threshold: int = 8,
                 desc_cache_size: int = 64) -> None:
        super().__init__(size, region)
        if writeback_threshold < 1:
            raise ValueError("writeback threshold must be >= 1")
        self.writeback_threshold = min(writeback_threshold, size)
        self.desc_cache_size = min(desc_cache_size, size)
        self._posted = size          # descriptors the NIC may fill
        self._fill_cursor = 0        # next descriptor index the NIC fills
        self._pending_wb: Deque[RxDescriptor] = deque()  # in descriptor cache
        self._completed: Deque[RxDescriptor] = deque()   # visible to driver
        self.filled_total = 0
        self.harvested_total = 0
        self.writebacks = 0

    # -- NIC side -------------------------------------------------------------

    @property
    def nic_free_descriptors(self) -> int:
        """Descriptors the NIC can still fill before stalling."""
        return self._posted

    @property
    def full(self) -> bool:
        """RX ring full from the NIC's perspective (drop-FSM input)."""
        return self._posted == 0

    def fill(self, buffer_addr: int, packet: Packet) -> RxDescriptor:
        """NIC consumed one posted descriptor for a received packet."""
        if self._posted == 0:
            raise RuntimeError("fill on a full RX ring")
        desc = RxDescriptor(index=self._fill_cursor, buffer_addr=buffer_addr,
                            packet=packet)
        self._fill_cursor = (self._fill_cursor + 1) % self.size
        self._posted -= 1
        self._pending_wb.append(desc)
        self.filled_total += 1
        return desc

    @property
    def writeback_due(self) -> bool:
        """Should the NIC write the descriptor cache back now?"""
        if not self._pending_wb:
            return False
        return (len(self._pending_wb) >= self.writeback_threshold
                or len(self._pending_wb) >= self.desc_cache_size)

    def writeback(self) -> List[RxDescriptor]:
        """Flush the descriptor cache: completed descriptors become visible
        to the driver.  Returns the batch (for DMA cost accounting)."""
        batch = list(self._pending_wb)
        self._pending_wb.clear()
        self._completed.extend(batch)
        if batch:
            self.writebacks += 1
        return batch

    # -- driver side ------------------------------------------------------------

    @property
    def completed_count(self) -> int:
        """Descriptors written back and visible to the driver."""
        return len(self._completed)

    @property
    def pending_writeback_count(self) -> int:
        """Filled descriptors still in the descriptor cache."""
        return len(self._pending_wb)

    def held(self) -> int:
        """Filled descriptors not yet harvested: cached or completed."""
        return len(self._pending_wb) + len(self._completed)

    def harvest(self, max_count: int) -> List[RxDescriptor]:
        """Driver collects up to ``max_count`` completed descriptors
        (an rx_burst)."""
        if max_count < 0:
            raise ValueError("negative harvest count")
        batch: List[RxDescriptor] = []
        while self._completed and len(batch) < max_count:
            batch.append(self._completed.popleft())
        self.harvested_total += len(batch)
        return batch

    def replenish(self, count: int = 1) -> None:
        """Driver posts ``count`` fresh buffers for the NIC to fill."""
        in_flight = (self._posted + len(self._pending_wb)
                     + len(self._completed))
        if in_flight + count > self.size:
            raise RuntimeError(
                f"replenish({count}) would exceed ring size {self.size}")
        self._posted += count

    # -- checkpoint support --------------------------------------------------

    # Cursor/counter state.  Descriptors in the descriptor cache or
    # awaiting harvest reference live packets (held()), so a quiescent
    # ring has both queues empty.  The writeback threshold is mutated at
    # runtime by the PMD's writeback quirk path.
    state_fields = ("_posted", "_fill_cursor", "filled_total",
                    "harvested_total", "writebacks", "writeback_threshold")

    def invariant_failures(self, final: bool = True):
        """Descriptor conservation: every filled descriptor is either in
        the descriptor cache, visible to the driver, or harvested.  All
        counters are lifetime (never reset), so this is exact at any
        instant."""
        fails = []
        retained = len(self._pending_wb) + len(self._completed)
        if self.filled_total != self.harvested_total + retained:
            fails.append(
                f"filled {self.filled_total} != harvested "
                f"{self.harvested_total} + cached "
                f"{len(self._pending_wb)} + completed "
                f"{len(self._completed)}")
        if not 0 <= self._posted <= self.size:
            fails.append(
                f"posted descriptor count {self._posted} outside "
                f"[0, {self.size}]")
        if self._posted + retained > self.size:
            fails.append(
                f"posted ({self._posted}) + in-flight ({retained}) "
                f"descriptors exceed ring size {self.size}")
        return fails


class TxRing(DescriptorRing):
    """The transmit ring: driver enqueues, NIC DMA-reads and drains."""

    def __init__(self, size: int, region: Region) -> None:
        super().__init__(size, region)
        self._queue: Deque[tuple] = deque()   # (buffer_addr, packet)
        self._tail = 0
        self.enqueued_total = 0
        self.consumed_total = 0

    def held(self) -> int:
        """Packets queued for transmission."""
        return len(self._queue)

    @property
    def free_slots(self) -> int:
        """Ring slots still available to the driver."""
        return self.size - len(self._queue)

    @property
    def full(self) -> bool:
        """True when no further item can be accepted."""
        return len(self._queue) >= self.size

    def enqueue(self, buffer_addr: int, packet: Packet) -> bool:
        """Driver posts a packet for transmission; False if the ring is
        full (the driver's tx_burst returns fewer than asked)."""
        if self.full:
            return False
        self._queue.append((buffer_addr, packet))
        self._tail = (self._tail + 1) % self.size
        self.enqueued_total += 1
        return True

    def peek(self) -> Optional[tuple]:
        """The oldest item without removing it (None if empty)."""
        return self._queue[0] if self._queue else None

    def consume(self) -> tuple:
        """NIC takes the next packet for DMA read + transmit."""
        if not self._queue:
            raise IndexError("consume from empty TX ring")
        self.consumed_total += 1
        return self._queue.popleft()

    # -- checkpoint support --------------------------------------------------

    state_fields = ("_tail", "enqueued_total", "consumed_total")

    def invariant_failures(self, final: bool = True):
        """TX descriptor conservation over lifetime counters."""
        fails = []
        if self.enqueued_total != self.consumed_total + len(self._queue):
            fails.append(
                f"enqueued {self.enqueued_total} != consumed "
                f"{self.consumed_total} + queued {len(self._queue)}")
        if len(self._queue) > self.size:
            fails.append(
                f"occupancy {len(self._queue)} exceeds ring size "
                f"{self.size}")
        return fails
