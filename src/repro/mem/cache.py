"""Set-associative cache with LRU replacement and way partitioning.

The LLC's ``reserved_ways`` support models Direct Cache Access / ARM cache
stashing as the paper configures it: "DCA uses 4 out of 16 ways of LLC for
network data" (§VII.C).  Lines inserted with ``partition='io'`` may only
occupy the reserved ways; core lines may only occupy the remainder, so
heavy DMA traffic can never wash out the application's working set — but an
RX ring larger than the reserved partition *does* leak DMA lines to DRAM
before the core consumes them (the Fig 13 "DMA leak" effect).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.checkpoint import Stateful

CORE_PARTITION = "core"
IO_PARTITION = "io"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size: int                  # bytes
    assoc: int
    latency_cycles: int        # hit latency, in core cycles
    mshrs: int = 8             # outstanding-miss limit presented to the core
    line_size: int = 64
    reserved_io_ways: int = 0  # >0 enables the DCA partition

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.line_size <= 0:
            raise ValueError(f"bad cache geometry for {self.name}")
        if self.size % (self.assoc * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_size})")
        if not 0 <= self.reserved_io_ways < self.assoc:
            raise ValueError(
                f"{self.name}: reserved_io_ways {self.reserved_io_ways} "
                f"must be < assoc {self.assoc}")

    @property
    def num_sets(self) -> int:
        """Number of cache sets implied by the geometry."""
        return self.size // (self.assoc * self.line_size)


class SetAssocCache(Stateful):
    """An LRU set-associative cache over line addresses.

    Sets are plain dicts used as ordered LRU lists (oldest first); a lookup
    hit re-inserts the tag at the back.  This is the fastest pure-Python LRU
    and the simulation performs millions of these probes.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.name = config.name
        self._line_shift = config.line_size.bit_length() - 1
        if (1 << self._line_shift) != config.line_size:
            raise ValueError(f"{config.name}: line size must be a power of 2")
        self._num_sets = config.num_sets
        self._core_ways = config.assoc - config.reserved_io_ways
        self._io_ways = config.reserved_io_ways
        # One LRU dict per set per partition.  The io partition list is only
        # materialized when DCA is configured.
        self._core_sets: List[Dict[int, None]] = [
            {} for _ in range(self._num_sets)]
        self._io_sets: Optional[List[Dict[int, None]]] = (
            [{} for _ in range(self._num_sets)] if self._io_ways else None)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- geometry -----------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """Line-aligned address."""
        return (addr >> self._line_shift) << self._line_shift

    def _index_tag(self, addr: int) -> tuple:
        line = addr >> self._line_shift
        return line % self._num_sets, line

    # -- probes -------------------------------------------------------------

    def lookup(self, addr: int) -> bool:
        """Probe for ``addr``; updates hit/miss counters and LRU order.

        ``_index_tag`` is inlined here: this is the hottest function in a
        packet-processing run (every core access probes two or three
        cache levels).
        """
        tag = addr >> self._line_shift
        index = tag % self._num_sets
        cset = self._core_sets[index]
        if tag in cset:
            self.hits += 1
            del cset[tag]
            cset[tag] = None
            return True
        if self._io_sets is not None:
            ioset = self._io_sets[index]
            if tag in ioset:
                self.hits += 1
                del ioset[tag]
                ioset[tag] = None
                return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Presence check without disturbing LRU or counters."""
        index, tag = self._index_tag(addr)
        if tag in self._core_sets[index]:
            return True
        return (self._io_sets is not None
                and tag in self._io_sets[index])

    def insert(self, addr: int, partition: str = CORE_PARTITION) -> Optional[int]:
        """Insert the line holding ``addr``; returns the evicted line address
        (or None).  Inserting a line already present refreshes its LRU slot.
        """
        tag = addr >> self._line_shift
        index = tag % self._num_sets
        if partition == IO_PARTITION and self._io_sets is not None:
            target, capacity = self._io_sets[index], self._io_ways
            # A line cannot live in both partitions.
            self._core_sets[index].pop(tag, None)
        else:
            target, capacity = self._core_sets[index], self._core_ways
            if self._io_sets is not None:
                self._io_sets[index].pop(tag, None)
        if tag in target:
            del target[tag]
            target[tag] = None
            return None
        evicted = None
        if len(target) >= capacity:
            victim = next(iter(target))
            del target[victim]
            self.evictions += 1
            evicted = victim << self._line_shift
        target[tag] = None
        return evicted

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` if present; True if it was.

        Like ``lookup``, inlines ``_index_tag``: every L2 eviction on the
        core miss path back-invalidates both L1s.
        """
        tag = addr >> self._line_shift
        index = tag % self._num_sets
        cset = self._core_sets[index]
        if tag in cset:
            del cset[tag]
            return True
        if self._io_sets is not None:
            ioset = self._io_sets[index]
            if tag in ioset:
                del ioset[tag]
                return True
        return False

    # -- line ranges ----------------------------------------------------------
    #
    # A DMA transfer covers ``n_lines`` consecutive lines.  Each range
    # method applies its single-line counterpart to those lines in address
    # order, so the cache ends in the same state, with the same counters,
    # as after the per-line calls.

    def invalidate_lines(self, first_addr: int, n_lines: int) -> None:
        """``invalidate`` each of the ``n_lines`` lines from ``first_addr``."""
        core_sets, io_sets = self._core_sets, self._io_sets
        num_sets = self._num_sets
        first = first_addr >> self._line_shift
        for tag in range(first, first + n_lines):
            index = tag % num_sets
            cset = core_sets[index]
            if tag in cset:
                del cset[tag]
            elif io_sets is not None:
                io_sets[index].pop(tag, None)

    def stash_lines(self, first_addr: int, n_lines: int) -> List[int]:
        """``insert(addr, IO_PARTITION)`` each of the ``n_lines`` lines from
        ``first_addr`` (a DCA stash; the cache must reserve io ways);
        returns the evicted line addresses in eviction order."""
        io_sets, core_sets = self._io_sets, self._core_sets
        capacity = self._io_ways
        shift, num_sets = self._line_shift, self._num_sets
        evicted: List[int] = []
        first = first_addr >> shift
        for tag in range(first, first + n_lines):
            index = tag % num_sets
            core_sets[index].pop(tag, None)
            target = io_sets[index]
            if tag in target:
                del target[tag]
            elif len(target) >= capacity:
                victim = next(iter(target))
                del target[victim]
                evicted.append(victim << shift)
            target[tag] = None
        self.evictions += len(evicted)
        return evicted

    def refresh_lines(self, first_addr: int, n_lines: int) -> List[bool]:
        """Per line from ``first_addr``: when resident, ``lookup`` it (a
        hit, and an LRU refresh); when not, touch nothing, not even the
        miss counter.  Returns whether each line was resident."""
        core_sets, io_sets = self._core_sets, self._io_sets
        num_sets = self._num_sets
        resident: List[bool] = []
        first = first_addr >> self._line_shift
        for tag in range(first, first + n_lines):
            index = tag % num_sets
            cset = core_sets[index]
            if tag not in cset and io_sets is not None:
                cset = io_sets[index]
            if tag in cset:
                del cset[tag]
                cset[tag] = None
                resident.append(True)
            else:
                resident.append(False)
        self.hits += resident.count(True)
        return resident

    def flush(self) -> None:
        """Empty the cache (keeps counters)."""
        for cset in self._core_sets:
            cset.clear()
        if self._io_sets is not None:
            for ioset in self._io_sets:
                ioset.clear()

    # -- stats ---------------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses as a fraction of lookups."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def occupancy(self) -> int:
        """Number of resident lines."""
        total = sum(len(s) for s in self._core_sets)
        if self._io_sets is not None:
            total += sum(len(s) for s in self._io_sets)
        return total

    # -- measurement and checkpoint support ----------------------------------

    measured_fields = ("hits", "misses", "evictions")

    def serialize_state(self) -> dict:
        """Tags per set in LRU order (oldest first) plus counters; the
        insertion order of the dicts *is* the replacement state, so a
        faithful restore just re-inserts in the same order."""
        return {
            "core_sets": [list(cset) for cset in self._core_sets],
            "io_sets": ([list(ioset) for ioset in self._io_sets]
                        if self._io_sets is not None else None),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def deserialize_state(self, state: dict) -> None:
        if len(state["core_sets"]) != self._num_sets:
            raise ValueError(
                f"{self.name}: set count changed "
                f"({len(state['core_sets'])} -> {self._num_sets})")
        if (state["io_sets"] is None) != (self._io_sets is None):
            raise ValueError(
                f"{self.name}: DCA partitioning changed across checkpoint")
        self._core_sets = [{tag: None for tag in tags}
                           for tags in state["core_sets"]]
        if self._io_sets is not None:
            self._io_sets = [{tag: None for tag in tags}
                             for tags in state["io_sets"]]
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.evictions = state["evictions"]

    def __repr__(self) -> str:
        cfg = self.config
        return (f"<SetAssocCache {cfg.name} {cfg.size // 1024}KiB "
                f"{cfg.assoc}-way>")
