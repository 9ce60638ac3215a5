"""NIC on-chip packet FIFOs.

"As soon as a packet is received, the NIC enqueues it in an on-chip SRAM
buffer referred to as RX FIFO" (paper §VII.A).  Capacity is in bytes, like
the real 8254x's 48KB packet buffer; a frame that does not fit is dropped
at the wire.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.packet import Packet
from repro.sim.checkpoint import Stateful


class PacketByteFifo(Stateful):
    """A byte-capacity-bounded FIFO of packets."""

    def __init__(self, capacity_bytes: int, name: str = "fifo") -> None:
        if capacity_bytes <= 0:
            raise ValueError("FIFO capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.enqueued = 0
        self.dequeued = 0
        self.rejected = 0

    @property
    def occupancy_bytes(self) -> int:
        """Bytes of packet data currently held."""
        return self._bytes

    @property
    def free_bytes(self) -> int:
        """Capacity remaining in bytes."""
        return self.capacity_bytes - self._bytes

    def __len__(self) -> int:
        return len(self._queue)

    def held(self) -> int:
        """Packets held: what a checkpoint waits to drain."""
        return len(self._queue)

    def fits(self, packet: Packet) -> bool:
        """True if the packet fits in the remaining capacity."""
        return packet.wire_len <= self.free_bytes

    @property
    def full_for_min_frame(self) -> bool:
        """True when even a minimum-size frame would not fit — the
        'FIFO full' condition the drop FSM samples."""
        return self.free_bytes < 64

    def try_enqueue(self, packet: Packet) -> bool:
        """Enqueue if there is room; returns False (and counts a
        rejection) otherwise."""
        if not self.fits(packet):
            self.rejected += 1
            return False
        self._queue.append(packet)
        self._bytes += packet.wire_len
        self.enqueued += 1
        return True

    def peek(self) -> Optional[Packet]:
        """The oldest item without removing it (None if empty)."""
        return self._queue[0] if self._queue else None

    def dequeue(self) -> Packet:
        """Remove and return the oldest item."""
        if not self._queue:
            raise IndexError("dequeue from empty FIFO")
        packet = self._queue.popleft()
        self._bytes -= packet.wire_len
        self.dequeued += 1
        return packet

    def requeue_front(self, packet: Packet) -> None:
        """Put a just-dequeued packet back at the head (a consumer that
        could not make progress).  Capacity is not re-checked: the packet
        occupied this space a moment ago."""
        self._queue.appendleft(packet)
        self._bytes += packet.wire_len
        self.dequeued -= 1

    def clear(self) -> None:
        """Drop all held packets.  Counts them as dequeued so the
        conservation law ``enqueued == dequeued + len(fifo)`` keeps
        holding across a clear."""
        self.dequeued += len(self._queue)
        self._queue.clear()
        self._bytes = 0

    # -- checkpoint support --------------------------------------------------

    # Lifetime counters only: packets cannot be serialized, so the FIFO
    # is checkpointed only once its owner's held() reads 0.
    state_fields = ("enqueued", "dequeued", "rejected")

    def invariant_failures(self, final: bool = True):
        """Conservation self-checks; a list of messages, empty when OK.

        These hold *exactly at any instant*: ``enqueued``/``dequeued``
        are lifetime counters never touched by a stats reset
        (``requeue_front`` un-counts its dequeue, ``clear`` counts its
        evictions).  The byte total is walked over the held packets only
        when ``final`` is true; the per-event path is integer compares.
        """
        fails = []
        if self.enqueued != self.dequeued + len(self._queue):
            fails.append(
                f"enqueued ({self.enqueued}) != dequeued ({self.dequeued}) "
                f"+ held ({len(self._queue)})")
        if not 0 <= self._bytes <= self.capacity_bytes:
            fails.append(
                f"occupancy {self._bytes}B outside [0, "
                f"{self.capacity_bytes}]B")
        if final:
            held_bytes = sum(p.wire_len for p in self._queue)
            if self._bytes != held_bytes:
                fails.append(
                    f"byte accounting ({self._bytes}) != held packet bytes "
                    f"({held_bytes})")
        return fails
