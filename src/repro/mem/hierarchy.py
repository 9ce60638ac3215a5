"""The cache/DRAM hierarchy glue.

Mirrors the simulated system in Table I: split L1I/L1D, a unified inclusive
L2 (back-invalidates L1 on eviction), a *non-inclusive* LLC (an ARM-style
system-level cache) with optional DCA way partitioning, and multi-channel
DRAM behind it.

Core accesses return a split cost: cache pipeline *cycles* (which scale with
core frequency, as in gem5 where caches share the core clock domain) plus
DRAM *nanoseconds* (which do not).  DMA accesses are accounted in
nanoseconds only, since the NIC's DMA engine is not in the core clock
domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mem.cache import CacheConfig, SetAssocCache
from repro.mem.dram import DramConfig, DramModel
from repro.sim.checkpoint import Stateful
from repro.sim.ports import KIND_MEM, ResponsePort

LEVEL_L1 = "l1"
LEVEL_L2 = "l2"
LEVEL_LLC = "llc"
LEVEL_DRAM = "dram"


class AccessResult:
    """Cost of one core memory access.

    Slotted and treated as immutable: ``core_access`` is called once per
    simulated load/store/fetch (tens of thousands of times per short
    run), and cache-hit results are shared singletons — the cost of a
    hit at each level is a pure function of the configured latencies.
    """

    __slots__ = ("level", "cycles", "dram_ns")

    def __init__(self, level: str, cycles: int, dram_ns: float) -> None:
        self.level = level          # which level serviced it
        self.cycles = cycles        # cache pipeline cycles (core clock)
        self.dram_ns = dram_ns      # DRAM portion, ns (zero for hits)

    def __eq__(self, other) -> bool:
        if other.__class__ is not AccessResult:
            return NotImplemented
        return (self.level, self.cycles, self.dram_ns) == \
               (other.level, other.cycles, other.dram_ns)

    def __hash__(self) -> int:
        return hash((self.level, self.cycles, self.dram_ns))

    def __repr__(self) -> str:
        return (f"AccessResult(level={self.level!r}, "
                f"cycles={self.cycles!r}, dram_ns={self.dram_ns!r})")


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of the whole hierarchy (Table I defaults)."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l1i", size=64 * 1024, assoc=4, latency_cycles=1, mshrs=2))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l1d", size=64 * 1024, assoc=4, latency_cycles=2, mshrs=6))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l2", size=1024 * 1024, assoc=8, latency_cycles=12, mshrs=16))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="llc", size=4 * 1024 * 1024, assoc=16, latency_cycles=30,
        mshrs=32, reserved_io_ways=4))
    dram: DramConfig = field(default_factory=DramConfig)
    llc_ns_for_dma: float = 8.0   # LLC access time seen by the DMA engine
    # A demand load's DRAM trip includes the SoC fabric + memory-controller
    # round trip on top of device timing; DMA bursts amortize this across
    # whole packets and do not pay it per line.
    core_dram_extra_ns: float = 45.0

    def __post_init__(self) -> None:
        for label in ("llc_ns_for_dma", "core_dram_extra_ns"):
            if getattr(self, label) < 0:
                raise ValueError(
                    f"{label} cannot be negative, got {getattr(self, label)}")
        # The DMA range operations walk every level with one line size.
        for cache in (self.l1i, self.l1d, self.l2, self.llc):
            if cache.line_size != self.dram.line_size:
                raise ValueError(
                    f"{cache.name}: line_size {cache.line_size} differs from "
                    f"dram line_size {self.dram.line_size}")

    @property
    def dca_enabled(self) -> bool:
        """DCA (cache stashing) is on when LLC ways are reserved for I/O."""
        return self.llc.reserved_io_ways > 0


class MemoryHierarchy(Stateful):
    """L1I/L1D -> inclusive L2 -> LLC (with DCA partition) -> DRAM."""

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 name: str = "hierarchy") -> None:
        self.config = config or HierarchyConfig()
        self.name = name
        cfg = self.config
        self.l1i = SetAssocCache(cfg.l1i)
        self.l1d = SetAssocCache(cfg.l1d)
        self.l2 = SetAssocCache(cfg.l2)
        self.llc = SetAssocCache(cfg.llc)
        self.dram = DramModel(cfg.dram, name=f"{name}.dram")
        # Cores above, DMA engines below; both are memory requestors and
        # may share the hierarchy (pipeline worker core, dual-mode client).
        self.cpu_side = ResponsePort(self, "cpu_side", KIND_MEM, multi=True)
        self.dma_side = ResponsePort(self, "dma_side", KIND_MEM, multi=True)
        # DMA-side counters (the Fig 13 "DMA leak" evidence).
        self.dma_lines_written = 0
        self.dma_lines_read = 0
        self.dma_llc_hits = 0       # TX reads served from LLC
        self.dma_leaked_lines = 0   # io-partition lines evicted by later DMA
        # Shared hit-cost singletons: the dominant core_access outcomes
        # allocate nothing.
        l2_cyc = cfg.l2.latency_cycles
        llc_cyc = cfg.llc.latency_cycles
        self._hit_l1i = AccessResult(LEVEL_L1, cfg.l1i.latency_cycles, 0.0)
        self._hit_l1d = AccessResult(LEVEL_L1, cfg.l1d.latency_cycles, 0.0)
        self._hit_l2 = {
            True: AccessResult(LEVEL_L2,
                               cfg.l1i.latency_cycles + l2_cyc, 0.0),
            False: AccessResult(LEVEL_L2,
                                cfg.l1d.latency_cycles + l2_cyc, 0.0),
        }
        self._hit_llc = {
            True: AccessResult(
                LEVEL_LLC, cfg.l1i.latency_cycles + l2_cyc + llc_cyc, 0.0),
            False: AccessResult(
                LEVEL_LLC, cfg.l1d.latency_cycles + l2_cyc + llc_cyc, 0.0),
        }

    # ------------------------------------------------------------------
    # Core-side accesses
    # ------------------------------------------------------------------

    def core_access(self, addr: int, now_ns: float = 0.0,
                    is_instr: bool = False,
                    is_write: bool = False) -> AccessResult:
        """One core load/store/fetch of the line containing ``addr``.

        A miss fills every level it missed, outermost first.  The L2 is
        inclusive of both L1s (paper §VII.C), so an L2 eviction
        back-invalidates them.  The LLC is non-inclusive (as ARM
        system-level caches are): an LLC eviction does not invalidate inner
        copies, so a large L2 is useful even when it exceeds the LLC's core
        partition.
        """
        l1 = self.l1i if is_instr else self.l1d
        if l1.lookup(addr):
            return self._hit_l1i if is_instr else self._hit_l1d
        l2 = self.l2
        if l2.lookup(addr):
            l1.insert(addr)
            return self._hit_l2[is_instr]
        if self.llc.lookup(addr):
            result = self._hit_llc[is_instr]
        else:
            dram_ns = (self.dram.access(addr, now_ns, is_write=is_write)
                       + self.config.core_dram_extra_ns)
            self.llc.insert(addr)
            result = AccessResult(LEVEL_DRAM, self._hit_llc[is_instr].cycles,
                                  dram_ns)
        evicted = l2.insert(addr)
        if evicted is not None:
            self.l1i.invalidate(evicted)
            self.l1d.invalidate(evicted)
        l1.insert(addr)
        return result

    # ------------------------------------------------------------------
    # DMA-side accesses (NIC <-> memory)
    #
    # One call moves a packet's ``n_lines`` consecutive lines (a
    # descriptor writeback moves one).  Each level gets the per-line
    # operations in line order, and latencies are summed in line order, so
    # states, counters and returned floats are those of one call per line.
    # ------------------------------------------------------------------

    def dma_write_lines(self, first_addr: int, n_lines: int,
                        now_ns: float = 0.0) -> float:
        """NIC writes ``n_lines`` lines from ``first_addr`` toward memory.

        With DCA the lines are stashed into the LLC's io partition; the
        inner caches' stale copies are invalidated.  Without DCA the lines
        go to DRAM and every cached copy is invalidated.  Returns the sum of
        the lines' memory-side latencies in nanoseconds (the I/O bus cost is
        charged by the DMA engine).
        """
        self.dma_lines_written += n_lines
        self.l1d.invalidate_lines(first_addr, n_lines)
        self.l1i.invalidate_lines(first_addr, n_lines)
        self.l2.invalidate_lines(first_addr, n_lines)
        dram = self.dram
        total = 0.0
        if self.config.dca_enabled:
            # A victim is an unconsumed DMA line that fell out of the
            # partition: the core will now have to fetch it from DRAM (a
            # "DMA leak"), and writing it back consumes DRAM bandwidth.
            leaked = self.llc.stash_lines(first_addr, n_lines)
            self.dma_leaked_lines += len(leaked)
            for victim in leaked:
                dram.access(victim, now_ns, is_write=True)
            llc_ns = self.config.llc_ns_for_dma
            for _ in range(n_lines):
                total += llc_ns
            return total
        self.llc.invalidate_lines(first_addr, n_lines)
        step = self.config.dram.line_size
        for addr in range(first_addr, first_addr + n_lines * step, step):
            total += dram.access(addr, now_ns, is_write=True)
        return total

    def dma_read_lines(self, first_addr: int, n_lines: int,
                       now_ns: float = 0.0) -> float:
        """NIC reads ``n_lines`` lines of TX packet data from memory; a line
        resident in the LLC is served there (and its LRU slot refreshed, so
        hot TX buffers stay resident), any other from DRAM."""
        self.dma_lines_read += n_lines
        resident = self.llc.refresh_lines(first_addr, n_lines)
        self.dma_llc_hits += resident.count(True)
        llc_ns = self.config.llc_ns_for_dma
        dram = self.dram
        total = 0.0
        addr = first_addr
        step = self.config.dram.line_size
        for hit in resident:
            if hit:
                total += llc_ns
            else:
                total += dram.access(addr, now_ns, is_write=False)
            addr += step
        return total

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def llc_miss_rate(self) -> float:
        """Core-side LLC miss rate (Fig 13's right axis)."""
        return self.llc.miss_rate

    # ------------------------------------------------------------------
    # Measurement and checkpoint support
    # ------------------------------------------------------------------

    measured_fields = ("l1i", "l1d", "l2", "llc", "dram",
                       "dma_lines_written", "dma_lines_read",
                       "dma_llc_hits", "dma_leaked_lines")
    state_fields = measured_fields

    #: The rule below checks nothing unless ``final``, so the topology
    #: does not call it in strict mode's per-event pass.
    final_checks_only = True

    def invariant_failures(self, final: bool = True):
        """DMA-side accounting sanity; a list of messages, empty when OK.
        These counters are all measured fields, reset together by
        ``reset_measurement``, so their relations hold at any instant;
        they are checked at final checks only."""
        if not final:
            return []
        fails = []
        for label, value in (("dma_lines_written", self.dma_lines_written),
                             ("dma_lines_read", self.dma_lines_read),
                             ("dma_llc_hits", self.dma_llc_hits),
                             ("dma_leaked_lines", self.dma_leaked_lines)):
            if value < 0:
                fails.append(f"negative {label} ({value})")
        if self.dma_llc_hits > self.dma_lines_read:
            fails.append(
                f"DMA LLC hits ({self.dma_llc_hits}) exceed DMA line "
                f"reads ({self.dma_lines_read})")
        if self.dma_leaked_lines > self.dma_lines_written:
            fails.append(
                f"DMA leaked lines ({self.dma_leaked_lines}) exceed DMA "
                f"line writes ({self.dma_lines_written})")
        return fails
