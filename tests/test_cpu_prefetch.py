"""Unit tests for the stream-prefetcher model and core clocking."""

from repro.cpu import InOrderCore, OutOfOrderCore
from repro.cpu.core import CoreConfig, Work
from repro.mem.hierarchy import MemoryHierarchy


def ooo():
    return OutOfOrderCore(CoreConfig(), MemoryHierarchy())


def inorder():
    return InOrderCore(CoreConfig(ooo=False), MemoryHierarchy())


class TestCoverageDetection:
    def test_short_runs_not_covered(self):
        core = ooo()
        assert core._covered_by_prefetch([0, 64]) == set()

    def test_long_run_partially_covered(self):
        core = ooo()
        lines = [i * 64 for i in range(24)]
        covered = core._covered_by_prefetch(lines)
        # First two lines always demand misses; roughly 2/3 covered after.
        assert lines[0] not in covered
        assert lines[1] not in covered
        assert 10 <= len(covered) <= 16

    def test_non_consecutive_never_covered(self):
        core = ooo()
        scattered = [0, 4096, 128, 64 * 100, 7]
        assert core._covered_by_prefetch(scattered) == set()

    def test_descending_never_covered(self):
        core = ooo()
        lines = [i * 64 for i in reversed(range(16))]
        assert core._covered_by_prefetch(lines) == set()

    def test_run_reset_after_gap(self):
        core = ooo()
        lines = [0, 64, 128, 192, 100_000, 100_064]
        covered = core._covered_by_prefetch(lines)
        assert 100_000 not in covered
        assert 100_064 not in covered


class TestPrefetchTiming:
    def test_sequential_dram_stream_cheaper_than_scattered(self):
        seq_core, scat_core = ooo(), ooo()
        base = 0x400000
        seq = [base + i * 64 for i in range(24)]
        scattered = [base + i * 8192 for i in range(24)]
        t_seq = seq_core.execute(Work(reads=seq))
        t_scat = scat_core.execute(Work(reads=scattered))
        assert t_seq < t_scat * 0.8
        assert seq_core.prefetch_covered > 0
        assert scat_core.prefetch_covered == 0

    def test_prefetch_helps_inorder_too(self):
        seq_core, scat_core = inorder(), inorder()
        base = 0x400000
        seq = [base + i * 64 for i in range(24)]
        scattered = [base + i * 8192 for i in range(24)]
        assert seq_core.execute(Work(reads=seq)) < \
            scat_core.execute(Work(reads=scattered)) * 0.7

    def test_covered_cost_never_exceeds_real(self):
        """A covered L1-adjacent hit must not be up-charged."""
        core = ooo()
        lines = [0x500000 + i * 64 for i in range(24)]
        core.execute(Work(reads=list(lines)))   # warm: now all in L1/L2
        warm = core.execute(Work(reads=list(lines)))
        # All warm accesses hit L1; total stays near issue cost.
        assert warm < 24 * 2 * core.config.period_ns + 10.0

    def test_counter_reset(self):
        core = ooo()
        core.execute(Work(reads=[0x600000 + i * 64 for i in range(12)]))
        core.reset_measurement()
        assert core.prefetch_covered == 0


class TestCoreClock:
    def test_clock_used_when_wired(self):
        from repro.sim.ports import CallbackClock

        core = ooo()
        called = []
        core.set_clock(CallbackClock(lambda: called.append(1) or 5000.0))
        core.execute(Work(reads=[0x700000]))
        assert called

    def test_explicit_now_overrides_clock(self):
        from repro.sim.ports import CallbackClock

        core = ooo()
        core.set_clock(CallbackClock(
            lambda: (_ for _ in ()).throw(AssertionError)))
        core.execute(Work(reads=[0x700000]), now_ns=123.0)   # no raise

    def test_dram_demand_load_pays_fabric_latency(self):
        hier = MemoryHierarchy()
        result = hier.core_access(0x800000, now_ns=1e9)
        assert result.dram_ns >= hier.config.core_dram_extra_ns
