"""Unit tests for the memory hierarchy (inclusion, DCA, DMA paths)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.kernels import lines_covering
from repro.mem.cache import CacheConfig, IO_PARTITION
from repro.mem.dram import DramConfig
from repro.mem.hierarchy import (
    AccessResult,
    HierarchyConfig,
    LEVEL_DRAM,
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    MemoryHierarchy,
)


def tiny_hierarchy(dca_ways=4):
    """Small caches so capacity effects are easy to trigger."""
    return MemoryHierarchy(HierarchyConfig(
        l1i=CacheConfig(name="l1i", size=1024, assoc=2, latency_cycles=1),
        l1d=CacheConfig(name="l1d", size=1024, assoc=2, latency_cycles=2),
        l2=CacheConfig(name="l2", size=4096, assoc=4, latency_cycles=12),
        llc=CacheConfig(name="llc", size=16384, assoc=8, latency_cycles=30,
                        reserved_io_ways=dca_ways),
        dram=DramConfig(),
    ))


class TestCorePath:
    def test_cold_access_goes_to_dram(self):
        hier = tiny_hierarchy()
        result = hier.core_access(0x1000)
        assert result.level == LEVEL_DRAM
        assert result.dram_ns > 0

    def test_second_access_hits_l1(self):
        hier = tiny_hierarchy()
        hier.core_access(0x1000)
        result = hier.core_access(0x1000)
        assert result.level == LEVEL_L1
        assert result.dram_ns == 0
        assert result.cycles == 2   # L1D latency

    def test_instruction_accesses_use_l1i(self):
        hier = tiny_hierarchy()
        hier.core_access(0x1000, is_instr=True)
        assert hier.core_access(0x1000, is_instr=True).level == LEVEL_L1
        assert hier.l1i.hits == 1
        assert hier.l1d.hits == 0

    def test_l1_eviction_leaves_l2_copy(self):
        hier = tiny_hierarchy()
        # L1D: 1KiB, 2-way, 8 sets.  Fill one set beyond capacity.
        base = 0x0
        set_stride = 8 * 64   # lines mapping to the same L1 set
        for i in range(3):
            hier.core_access(base + i * set_stride)
        # The first line fell out of L1 but not out of L2.
        result = hier.core_access(base)
        assert result.level == LEVEL_L2

    def test_latency_accumulates_down_the_hierarchy(self):
        hier = tiny_hierarchy()
        dram = hier.core_access(0x2000)
        l1 = hier.core_access(0x2000)
        assert dram.cycles > l1.cycles

    def test_l2_eviction_back_invalidates_l1(self):
        hier = tiny_hierarchy()
        # L2: 4KiB 4-way, 16 sets; same-set stride = 16*64.
        stride = 16 * 64
        hier.core_access(0x0)
        for i in range(1, 5):
            hier.core_access(i * stride)   # evicts line 0 from L2
        assert not hier.l2.contains(0x0)
        assert not hier.l1d.contains(0x0)   # inclusion maintained


class TestDmaPath:
    def test_dca_write_lands_in_llc(self):
        hier = tiny_hierarchy(dca_ways=4)
        hier.dma_write_lines(0x3000, 1)
        assert hier.llc.contains(0x3000)

    def test_dca_write_is_fast(self):
        hier = tiny_hierarchy(dca_ways=4)
        assert hier.dma_write_lines(0x3000, 1) == \
            hier.config.llc_ns_for_dma

    def test_core_read_after_dca_write_hits_llc(self):
        hier = tiny_hierarchy(dca_ways=4)
        hier.dma_write_lines(0x3000, 1)
        assert hier.core_access(0x3000).level == LEVEL_LLC

    def test_no_dca_write_goes_to_dram(self):
        hier = tiny_hierarchy(dca_ways=0)
        latency = hier.dma_write_lines(0x3000, 1)
        assert not hier.llc.contains(0x3000)
        assert latency > hier.config.llc_ns_for_dma

    def test_dma_write_invalidates_stale_core_copies(self):
        hier = tiny_hierarchy(dca_ways=4)
        hier.core_access(0x3000)
        hier.dma_write_lines(0x3000, 1)
        assert not hier.l1d.contains(0x3000)
        assert not hier.l2.contains(0x3000)

    def test_dma_leak_counted(self):
        hier = tiny_hierarchy(dca_ways=4)
        # io partition: 8 ways llc, 4 io ways, 32 sets -> 128 io lines.
        capacity_lines = 4 * (16384 // (8 * 64))
        for i in range(capacity_lines + 10):
            hier.dma_write_lines(i * 64, 1)
        assert hier.dma_leaked_lines == 10

    def test_dma_read_hits_llc_resident_line(self):
        hier = tiny_hierarchy(dca_ways=4)
        hier.dma_write_lines(0x4000, 1)
        latency = hier.dma_read_lines(0x4000, 1)
        assert latency == hier.config.llc_ns_for_dma
        assert hier.dma_llc_hits == 1

    def test_dma_read_of_cold_line_goes_to_dram(self):
        hier = tiny_hierarchy(dca_ways=4)
        latency = hier.dma_read_lines(0x5000, 1)
        assert latency > hier.config.llc_ns_for_dma

    def test_counters(self):
        hier = tiny_hierarchy()
        hier.dma_write_lines(0, 1)
        hier.dma_read_lines(0, 1)
        assert hier.dma_lines_written == 1
        assert hier.dma_lines_read == 1

    def test_reset_counters(self):
        hier = tiny_hierarchy()
        hier.dma_write_lines(0, 1)
        hier.core_access(0x100)
        hier.reset_measurement()
        assert hier.dma_lines_written == 0
        assert hier.llc.misses == 0


class TestConfig:
    def test_dca_enabled_flag(self):
        assert tiny_hierarchy(dca_ways=4).config.dca_enabled
        assert not tiny_hierarchy(dca_ways=0).config.dca_enabled

    def test_default_config_matches_table1(self):
        config = HierarchyConfig()
        assert config.l1i.size == 64 * 1024
        assert config.l1d.size == 64 * 1024
        assert config.l2.size == 1024 * 1024
        assert config.l1i.latency_cycles == 1
        assert config.l1d.latency_cycles == 2
        assert config.l2.latency_cycles == 12
        assert config.l1i.mshrs == 2
        assert config.l1d.mshrs == 6
        assert config.l2.mshrs == 16

    @pytest.mark.parametrize("changes, field", [
        ({"llc_ns_for_dma": -1.0}, "llc_ns_for_dma"),
        ({"core_dram_extra_ns": -0.5}, "core_dram_extra_ns"),
        ({"dram": DramConfig(line_size=128)}, "line_size"),
        ({"l2": CacheConfig(name="l2", size=1024 * 1024, assoc=8,
                            latency_cycles=12, line_size=128)}, "l2"),
    ])
    def test_impossible_config_rejected(self, changes, field):
        with pytest.raises(ValueError, match=field):
            replace(HierarchyConfig(), **changes)


# ----------------------------------------------------------------------
# The packet-granular DMA path against the per-line reference
# ----------------------------------------------------------------------
#
# The per-line bodies below are the DMA entry points that the range calls
# replaced, and the core miss path as it was before its fill helpers were
# folded in, written against the caches' public single-line operations.


def reference_dma_write_line(hier, addr, now_ns):
    hier.dma_lines_written += 1
    hier.l1d.invalidate(addr)
    hier.l1i.invalidate(addr)
    if hier.config.dca_enabled:
        hier.l2.invalidate(addr)
        evicted = hier.llc.insert(addr, partition=IO_PARTITION)
        if evicted is not None:
            hier.dma_leaked_lines += 1
            hier.dram.access(evicted, now_ns, is_write=True)
        return hier.config.llc_ns_for_dma
    hier.l2.invalidate(addr)
    hier.llc.invalidate(addr)
    return hier.dram.access(addr, now_ns, is_write=True)


def reference_dma_read_line(hier, addr, now_ns):
    hier.dma_lines_read += 1
    if hier.llc.contains(addr):
        hier.dma_llc_hits += 1
        hier.llc.lookup(addr)
        return hier.config.llc_ns_for_dma
    return hier.dram.access(addr, now_ns, is_write=False)


def reference_fill_l2(hier, addr):
    evicted = hier.l2.insert(addr)
    if evicted is not None:
        hier.l1i.invalidate(evicted)
        hier.l1d.invalidate(evicted)


def reference_core_access(hier, addr, now_ns, is_instr, is_write):
    cfg = hier.config
    l1 = hier.l1i if is_instr else hier.l1d
    if l1.lookup(addr):
        return AccessResult(LEVEL_L1, l1.config.latency_cycles, 0.0)
    if hier.l2.lookup(addr):
        l1.insert(addr)
        return AccessResult(
            LEVEL_L2, l1.config.latency_cycles + cfg.l2.latency_cycles, 0.0)
    cycles = (l1.config.latency_cycles + cfg.l2.latency_cycles
              + cfg.llc.latency_cycles)
    if hier.llc.lookup(addr):
        reference_fill_l2(hier, addr)
        l1.insert(addr)
        return AccessResult(LEVEL_LLC, cycles, 0.0)
    dram_ns = (hier.dram.access(addr, now_ns, is_write=is_write)
               + cfg.core_dram_extra_ns)
    hier.llc.insert(addr)
    reference_fill_l2(hier, addr)
    l1.insert(addr)
    return AccessResult(LEVEL_DRAM, cycles, dram_ns)


def leaky_hierarchy(dca):
    """Caches and DRAM small enough that a few packets evict, leak DMA
    lines out of the io partition, and conflict on DRAM rows.  The LLC's
    DMA time and the DRAM transfer time are inexact in binary, so a sum
    taken in another order, or as a product, comes out different."""
    return MemoryHierarchy(HierarchyConfig(
        l1i=CacheConfig(name="l1i", size=256, assoc=2, latency_cycles=1),
        l1d=CacheConfig(name="l1d", size=512, assoc=2, latency_cycles=2),
        l2=CacheConfig(name="l2", size=1024, assoc=2, latency_cycles=12),
        llc=CacheConfig(name="llc", size=4096, assoc=8, latency_cycles=30,
                        reserved_io_ways=4 if dca else 0),
        dram=DramConfig(channels=2, banks_per_channel=2, row_size=256,
                        channel_bw_bytes_per_ns=5.0),
        llc_ns_for_dma=7.9,
    ))


ADDRS = st.integers(min_value=0, max_value=4096)
GAPS = st.floats(min_value=0.0, max_value=150.0)
DMA_OPS = st.tuples(st.sampled_from(["write", "read"]), ADDRS,
                    st.integers(min_value=-64, max_value=1600), GAPS)
DESC_OPS = st.tuples(st.just("desc"), ADDRS, st.just(16), GAPS)
CORE_OPS = st.tuples(st.sampled_from(["load", "store", "fetch"]), ADDRS,
                     st.just(8), GAPS)


@given(dca=st.booleans(),
       ops=st.lists(st.one_of(DMA_OPS, DESC_OPS, CORE_OPS),
                    min_size=30, max_size=80))
@settings(max_examples=200, deadline=None)
def test_range_dma_matches_per_line_reference(dca, ops):
    hier, ref = leaky_hierarchy(dca), leaky_hierarchy(dca)
    now_ns = 0.0
    for kind, addr, nbytes, gap in ops:
        now_ns += gap
        if kind in ("write", "read"):
            lines = lines_covering(addr, nbytes)
            first = lines[0] if lines else addr
            reference_line = (reference_dma_write_line if kind == "write"
                              else reference_dma_read_line)
            expected = 0.0
            for line in lines:
                expected += reference_line(ref, line, now_ns)
            ranged = (hier.dma_write_lines if kind == "write"
                      else hier.dma_read_lines)
            got = ranged(first, len(lines), now_ns)
        elif kind == "desc":
            line = addr - addr % 64
            expected = reference_dma_write_line(ref, line, now_ns)
            got = hier.dma_write_lines(line, 1, now_ns)
        else:
            is_instr, is_write = kind == "fetch", kind == "store"
            expected = reference_core_access(ref, addr, now_ns,
                                             is_instr, is_write)
            got = hier.core_access(addr, now_ns, is_instr, is_write)
        assert got == expected, (kind, addr, nbytes)
        # Name what diverged rather than diff whole cache states.
        diverged = [level for level in ("l1i", "l1d", "l2", "llc", "dram")
                    if getattr(hier, level).serialize_state()
                    != getattr(ref, level).serialize_state()]
        diverged += [counter for counter in (
            "dma_lines_written", "dma_lines_read", "dma_llc_hits",
            "dma_leaked_lines")
            if getattr(hier, counter) != getattr(ref, counter)]
        assert not diverged, (kind, addr, nbytes)
