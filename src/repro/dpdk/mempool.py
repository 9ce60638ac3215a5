"""Mempools and mbufs.

An :class:`Mbuf` is a fixed-size packet buffer in hugepage memory; a
:class:`Mempool` recycles them through a LIFO free list, which — exactly as
in DPDK's per-lcore mempool cache — keeps the hot subset of buffers small
and cache-resident.  The mempool's *cycling footprint* (how many distinct
buffers are in flight) is what determines the DPDK working-set size the
paper measures to be "larger than 256KiB and smaller than 1MiB" (§VII.C).
"""

from __future__ import annotations

from typing import List, Optional

from repro.dpdk.hugepages import HugepageAllocator
from repro.mem.address import Region
from repro.net.packet import Packet
from repro.sim.checkpoint import CheckpointError
from repro.sim.ports import KIND_BUFFER, ResponsePort

MBUF_HEADROOM = 128
DEFAULT_MBUF_SIZE = 2048


class MempoolEmptyError(RuntimeError):
    """Raised when a get() finds no free mbuf (a buffer leak upstream)."""


class Mbuf:
    """One packet buffer: metadata header + data room."""

    __slots__ = ("index", "buffer_addr", "data_addr", "size", "packet", "pool")

    def __init__(self, index: int, buffer_addr: int, size: int,
                 pool: "Mempool") -> None:
        self.index = index
        self.buffer_addr = buffer_addr
        self.data_addr = buffer_addr + MBUF_HEADROOM
        self.size = size
        self.packet: Optional[Packet] = None
        self.pool = pool

    def free(self) -> None:
        """Return this mbuf to its pool."""
        self.pool.put(self)

    def __repr__(self) -> str:
        return f"<Mbuf #{self.index} @{self.buffer_addr:#x}>"


class Mempool:
    """A fixed population of mbufs with a LIFO free list."""

    def __init__(self, name: str, hugepages: HugepageAllocator,
                 n_mbufs: int, mbuf_size: int = DEFAULT_MBUF_SIZE) -> None:
        if n_mbufs < 1:
            raise ValueError("mempool needs at least one mbuf")
        if mbuf_size < MBUF_HEADROOM + 64:
            raise ValueError(f"mbuf size {mbuf_size} too small")
        self.name = name
        self.n_mbufs = n_mbufs
        self.mbuf_size = mbuf_size
        # Buffer clients (PMDs, apps) bind here; several may share a pool.
        self.client_side = ResponsePort(self, "client_side", KIND_BUFFER,
                                        multi=True)
        self.region: Region = hugepages.allocate(n_mbufs * mbuf_size)
        self._free: List[Mbuf] = [
            Mbuf(i, self.region.base + i * mbuf_size, mbuf_size, self)
            for i in reversed(range(n_mbufs))
        ]
        self.gets = 0
        self.puts = 0
        self.high_watermark = 0

    @property
    def available(self) -> int:
        """Free mbufs remaining in the pool."""
        return len(self._free)

    @property
    def in_use(self) -> int:
        """Mbufs currently allocated to users."""
        return self.n_mbufs - len(self._free)

    def get(self) -> Mbuf:
        """Allocate an mbuf (LIFO: most-recently-freed first)."""
        if not self._free:
            raise MempoolEmptyError(
                f"mempool {self.name} exhausted "
                f"({self.n_mbufs} mbufs all in use)")
        mbuf = self._free.pop()
        self.gets += 1
        self.high_watermark = max(self.high_watermark, self.in_use)
        return mbuf

    def try_get(self) -> Optional[Mbuf]:
        """Allocate, or None when empty (the PMD replenish path)."""
        if not self._free:
            return None
        return self.get()

    def put(self, mbuf: Mbuf) -> None:
        """Return an mbuf to the pool."""
        if mbuf.pool is not self:
            raise ValueError(
                f"mbuf from pool {mbuf.pool.name} returned to {self.name}")
        if len(self._free) >= self.n_mbufs:
            raise RuntimeError(f"double free into mempool {self.name}")
        mbuf.packet = None
        self._free.append(mbuf)
        self.puts += 1

    def footprint_bytes(self) -> int:
        """Total buffer memory (the upper bound of the working set)."""
        return self.n_mbufs * self.mbuf_size

    # -- checkpoint support --------------------------------------------------

    def serialize_state(self) -> dict:
        """Free-list *order* (the LIFO recycling pattern determines which
        buffer addresses the restored run touches) plus counters.  An
        mbuf still out at checkpoint time holds a live packet, so the
        pool must be idle."""
        if self.in_use:
            raise CheckpointError(
                f"mempool {self.name} has {self.in_use} mbuf(s) in use; "
                f"checkpoints require a quiescent (drained) node")
        return {
            "free_order": [mbuf.index for mbuf in self._free],
            "gets": self.gets,
            "puts": self.puts,
            "high_watermark": self.high_watermark,
        }

    def deserialize_state(self, state: dict) -> None:
        if len(state["free_order"]) != self.n_mbufs:
            raise CheckpointError(
                f"mempool {self.name}: population changed "
                f"({len(state['free_order'])} -> {self.n_mbufs})")
        by_index = {mbuf.index: mbuf for mbuf in self._free}
        self._free = [by_index[idx] for idx in state["free_order"]]
        self.gets = state["gets"]
        self.puts = state["puts"]
        self.high_watermark = state["high_watermark"]

    #: The rule below checks nothing unless ``final``, so the topology
    #: does not call it in strict mode's per-event pass.
    final_checks_only = True

    def invariant_failures(self, final: bool = True):
        """Mbuf conservation self-checks; a list of messages, empty when
        OK.  ``gets``/``puts`` are lifetime counters, so the accounting
        equality is exact at any instant; it is checked at final checks
        only."""
        if not final:
            return []
        fails = []
        if self.gets != self.puts + self.in_use:
            fails.append(
                f"gets ({self.gets}) != puts ({self.puts}) + in-use "
                f"({self.in_use})")
        if not 0 <= self.in_use <= self.n_mbufs:
            fails.append(
                f"in-use count {self.in_use} outside [0, {self.n_mbufs}]")
        return fails

    def leak_failures(self):
        """Any mbuf still out of the pool, as a message list: a leak
        once the owner knows its datapath is quiescent."""
        if not self.in_use:
            return []
        free = {m.index for m in self._free}
        leaked = [idx for idx in range(self.n_mbufs) if idx not in free]
        return [
            f"{self.in_use} mbuf(s) leaked at quiescence "
            f"(indices {leaked[:8]}{'...' if len(leaked) > 8 else ''})"]

    def __repr__(self) -> str:
        return (f"<Mempool {self.name} {self.available}/{self.n_mbufs} "
                f"free, {self.mbuf_size}B mbufs>")
