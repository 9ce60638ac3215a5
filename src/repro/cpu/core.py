"""Core model base class and work description.

A :class:`Work` is the memory/compute footprint of one unit of application
work (one packet, one request): address lists for instruction fetches,
independent loads, stores, and a *dependent* load chain that no amount of
out-of-order machinery can overlap (pointer chasing, e.g. the KV store's
hash-bucket walk).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.checkpoint import Stateful
from repro.sim.ports import KIND_CLOCK, KIND_MEM, RequestPort


@dataclass(frozen=True)
class CoreConfig:
    """Microarchitectural parameters (Table I)."""

    freq_hz: float = 3e9
    ooo: bool = True
    width: int = 4                  # superscalar ways
    rob_entries: int = 128
    iq_entries: int = 120
    lq_entries: int = 68
    sq_entries: int = 72
    int_regs: int = 256
    fp_regs: int = 256
    btb_entries: int = 8192
    branch_predictor: str = "BiModeBP"
    # Average instructions between independent memory accesses in the hot
    # loops; ROB/insts_per_access bounds discoverable memory-level
    # parallelism.
    insts_per_access: int = 8
    # Relative pipeline efficiency vs the reference model.  >1 models a
    # real core outperforming its simulated counterpart — the paper
    # attributes altra's edge on core-bound workloads to "the superior
    # performance of a real Neoverse N1 core compared to its simulated
    # counterpart in gem5" (§VII.B).
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.width < 1 or self.rob_entries < 1:
            raise ValueError("width and ROB must be at least 1")
        if self.efficiency <= 0:
            raise ValueError("efficiency must be positive")

    @property
    def period_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1e9 / self.freq_hz


@dataclass
class Work:
    """The footprint of one unit of work.

    ``compute_cycles`` are *retired* cycles on the reference out-of-order
    pipeline.  Two knobs encode kernel-level ILP properties:

    - ``max_mlp`` caps how many of this kernel's misses the OoO core can
      overlap (tight byte-processing loops discover less MLP than the
      ROB-wide limit allows);
    - ``inorder_penalty`` is the CPI multiplier an in-order pipeline pays
      on this kernel's compute (dependent-chain-heavy loops degrade far
      more than straight-line driver code).
    """

    compute_cycles: int = 0
    ifetch: Sequence[int] = field(default_factory=tuple)
    reads: Sequence[int] = field(default_factory=tuple)
    writes: Sequence[int] = field(default_factory=tuple)
    dependent_reads: Sequence[int] = field(default_factory=tuple)
    max_mlp: Optional[int] = None
    inorder_penalty: float = 2.0

    @property
    def access_count(self) -> int:
        """Total memory accesses described by this work unit."""
        return (len(self.ifetch) + len(self.reads) + len(self.writes)
                + len(self.dependent_reads))


class CoreModel(Stateful):
    """Base: owns the hierarchy, counts instructions and busy time."""

    #: In a run of consecutive cache lines, the stream prefetcher covers
    #: lines after the first two at this ratio (2 of every 3): a covered
    #: line's latency collapses to an L2-hit-equivalent cost even when the
    #: data comes from DRAM.  DRAM bandwidth is still consumed.
    PREFETCH_MIN_RUN = 2
    PREFETCH_DUTY = 3   # of each DUTY lines in a run, DUTY-1 are covered

    def __init__(self, config: CoreConfig, hierarchy: MemoryHierarchy,
                 clock=None, name: str = "core") -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.name = name
        self.busy_ns = 0.0
        self.work_units = 0
        self.accesses = 0
        self.l1_hits = 0
        self.prefetch_covered = 0
        self.mem_port = RequestPort(self, "mem_port", KIND_MEM)
        self.mem_port.bind(hierarchy.cpu_side)
        self.clock_port = RequestPort(
            self, "clock_port", KIND_CLOCK,
            hint="give the core a time source: make_core(..., "
                 "clock=ClockDomain(sim)) or core.set_clock(domain)")
        # Simulated-time source; the owning topology binds a ClockDomain
        # here so DRAM queueing is judged against real time.  ``None``
        # (standalone/calibration use) pins time at zero.
        self.clock = None
        if clock is not None:
            self.set_clock(clock)

    def set_clock(self, clock) -> None:
        """Join ``clock``'s domain (an object exposing ``now_ns()``)."""
        self.clock = clock
        self.clock_port.bind(clock.port)

    def _covered_by_prefetch(self, reads: Sequence[int]) -> set:
        """Line addresses in sequential runs that the stream prefetcher
        hides (hardware prefetchers key on ascending line strides)."""
        covered = set()
        prev_line = None
        run_len = 0
        for addr in reads:
            line = addr & ~63
            if prev_line is not None and line == prev_line + 64:
                run_len += 1
                if (run_len >= self.PREFETCH_MIN_RUN
                        and run_len % self.PREFETCH_DUTY != 0):
                    covered.add(addr)
            else:
                run_len = 0
            prev_line = line
        return covered

    def _prefetched_cost_ns(self) -> float:
        """Latency of a prefetch-covered line: the pipeline sees roughly
        an L2 hit."""
        cfg = self.hierarchy.config
        return (cfg.l1d.latency_cycles
                + cfg.l2.latency_cycles) * self.config.period_ns

    def execute(self, work: Work, now_ns: Optional[float] = None) -> float:
        """Run one work unit; returns elapsed nanoseconds.

        ``now_ns`` defaults to the wired ``clock`` (the node's simulated
        time) so DRAM queueing delays are computed against real time.
        """
        if now_ns is None:
            now_ns = self.clock.now_ns() if self.clock is not None else 0.0
        elapsed = self._time_work(work, now_ns)
        self.busy_ns += elapsed
        self.work_units += 1
        self.accesses += work.access_count
        return elapsed

    def _time_work(self, work: Work, now_ns: float) -> float:
        raise NotImplementedError

    # -- measurement and checkpoint support ----------------------------------

    measured_fields = ("busy_ns", "work_units", "accesses", "l1_hits",
                       "prefetch_covered")
    state_fields = measured_fields

    #: The rule below checks nothing unless ``final``, so the topology
    #: does not call it in strict mode's per-event pass.
    final_checks_only = True

    def invariant_failures(self, final: bool = True):
        """Core accounting sanity; a list of messages, empty when OK.
        All counters here are measured fields, reset together by
        ``reset_measurement``, so their relations hold at any instant;
        they are checked at final checks only."""
        if not final:
            return []
        fails = []
        if self.busy_ns < 0:
            fails.append(f"negative busy time {self.busy_ns}ns")
        if not 0 <= self.l1_hits <= self.accesses:
            fails.append(
                f"L1 hits ({self.l1_hits}) outside [0, accesses "
                f"({self.accesses})]")
        if self.prefetch_covered > self.accesses:
            fails.append(
                f"prefetch-covered lines ({self.prefetch_covered}) exceed "
                f"total accesses ({self.accesses})")
        if self.work_units and self.accesses and self.busy_ns <= 0:
            fails.append(
                f"{self.work_units} work units with {self.accesses} "
                f"accesses accumulated no busy time")
        return fails
