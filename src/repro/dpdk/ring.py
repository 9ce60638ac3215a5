"""rte_ring: fixed-size power-of-two FIFO ring.

DPDK's "pipeline mode" passes packets between cores "via a user-level ring
buffer" (§II.A); this is that structure, with burst enqueue/dequeue
semantics matching ``rte_ring_enqueue_burst``/``rte_ring_dequeue_burst``
(partial success returns the count actually moved).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.checkpoint import Stateful


class RteRing(Stateful):
    """A bounded FIFO with burst operations."""

    def __init__(self, name: str, size: int) -> None:
        if size < 2 or size & (size - 1):
            raise ValueError(f"ring size must be a power of two >= 2, "
                             f"got {size}")
        self.name = name
        self.size = size
        self._slots: List[object] = [None] * size
        self._head = 0   # next dequeue
        self._tail = 0   # next enqueue
        self._count = 0
        self.enqueued = 0
        self.dequeued = 0
        self.enqueue_failures = 0

    def held(self) -> int:
        """Number of items currently held (each a live packet)."""
        return self._count

    @property
    def free_count(self) -> int:
        """Slots still available."""
        return self.size - self._count

    @property
    def empty(self) -> bool:
        """True when nothing is held."""
        return self._count == 0

    @property
    def full(self) -> bool:
        """True when no further item can be accepted."""
        return self._count == self.size

    def enqueue(self, item: object) -> bool:
        """Append an item; False if there is no room."""
        if self._count == self.size:
            self.enqueue_failures += 1
            return False
        self._slots[self._tail] = item
        self._tail = (self._tail + 1) & (self.size - 1)
        self._count += 1
        self.enqueued += 1
        return True

    def enqueue_burst(self, items: Sequence[object]) -> int:
        """Enqueue as many as fit; returns the number accepted."""
        accepted = 0
        for item in items:
            if not self.enqueue(item):
                break
            accepted += 1
        return accepted

    def dequeue(self) -> Optional[object]:
        """Remove and return the oldest item."""
        if self._count == 0:
            return None
        item = self._slots[self._head]
        self._slots[self._head] = None
        self._head = (self._head + 1) & (self.size - 1)
        self._count -= 1
        self.dequeued += 1
        return item

    def dequeue_burst(self, max_count: int) -> List[object]:
        """Dequeue up to ``max_count`` items."""
        if max_count < 0:
            raise ValueError("negative burst size")
        out: List[object] = []
        while self._count and len(out) < max_count:
            out.append(self.dequeue())
        return out

    # -- checkpoint support --------------------------------------------------

    # Cursors and lifetime counters.  Held items are live packets, so the
    # ring is checkpointed empty (its slots are then all None and the
    # cursors alone reproduce the state).
    state_fields = ("_head", "_tail", "enqueued", "dequeued",
                    "enqueue_failures")

    def invariant_failures(self, final: bool = True):
        """Ring conservation self-checks over lifetime counters; a list
        of messages, empty when OK."""
        fails = []
        if self.enqueued != self.dequeued + self._count:
            fails.append(
                f"enqueued ({self.enqueued}) != dequeued "
                f"({self.dequeued}) + held ({self._count})")
        if not 0 <= self._count <= self.size:
            fails.append(
                f"occupancy {self._count} outside [0, {self.size}]")
        return fails
