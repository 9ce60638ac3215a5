"""Unit tests for the DMA engine."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.kernels import lines_covering
from repro.mem.dram import DramConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.xbar import BandwidthServer
from repro.nic.dma import DmaConfig, DmaEngine
from repro.sim.ticks import TICKS_PER_NS


def make_engine(bw=7.6e9, setup_ns=15.0, dca=True, latency_ticks=0):
    config = HierarchyConfig()
    if not dca:
        config = replace(config, llc=replace(config.llc, reserved_io_ways=0))
    hierarchy = MemoryHierarchy(config)
    bus = BandwidthServer("iobus", bw, latency_ticks)
    return DmaEngine(DmaConfig(setup_ns=setup_ns), bus, hierarchy), hierarchy


def test_write_packet_advances_rx_direction_only():
    engine, _hier = make_engine()
    engine.write_packet(0, 0x10000, 1518)
    assert engine.rx_busy_until > 0
    assert engine.tx_busy_until == 0


def test_read_packet_advances_tx_direction_only():
    engine, _hier = make_engine()
    engine.read_packet(0, 0x10000, 1518)
    assert engine.tx_busy_until > 0
    assert engine.rx_busy_until == 0


def test_full_duplex_directions_independent():
    engine, _hier = make_engine()
    rx_finish = engine.write_packet(0, 0x10000, 1518)
    tx_finish = engine.read_packet(0, 0x20000, 1518)
    # TX does not queue behind RX.
    assert abs(rx_finish - tx_finish) < rx_finish / 2


def test_back_to_back_writes_serialize():
    engine, _hier = make_engine()
    engine.write_packet(0, 0x10000, 1518)
    first_busy = engine.rx_busy_until
    engine.write_packet(0, 0x20000, 1518)
    assert engine.rx_busy_until >= 2 * first_busy - 1


def test_throughput_bounded_by_bus_bandwidth():
    engine, _hier = make_engine(bw=1e9, setup_ns=0.0)
    finish = 0
    for i in range(10):
        finish = engine.write_packet(0, 0x10000 + i * 2048, 1000)
    # 10 x (1000+16) bytes at 1 GB/s ~ 10.16 us.
    assert finish >= round(10 * 1016 * TICKS_PER_NS)


def test_setup_cost_dominates_small_packets():
    fast, _ = make_engine(setup_ns=0.0)
    slow, _ = make_engine(setup_ns=100.0)
    assert slow.write_packet(0, 0x10000, 64) > \
        fast.write_packet(0, 0x10000, 64) + 90 * TICKS_PER_NS


def test_bus_latency_delays_completion_not_occupancy():
    engine, _ = make_engine(latency_ticks=500_000)   # 500ns
    finish1 = engine.write_packet(0, 0x10000, 64)
    assert engine.rx_busy_until == finish1 - 500_000


def test_dca_write_lands_lines_in_llc():
    engine, hierarchy = make_engine(dca=True)
    engine.write_packet(0, 0x10000, 256)
    for line in range(0x10000, 0x10000 + 256, 64):
        assert hierarchy.llc.contains(line)


def test_no_dca_write_skips_llc():
    engine, hierarchy = make_engine(dca=False)
    engine.write_packet(0, 0x10000, 256)
    assert not hierarchy.llc.contains(0x10000)


def test_no_dca_write_is_slower():
    with_dca, _ = make_engine(dca=True, bw=1e12)   # memory-bound
    without, _ = make_engine(dca=False, bw=1e12)
    t_dca = with_dca.write_packet(0, 0x10000, 1518)
    t_dram = without.write_packet(0, 0x10000, 1518)
    assert t_dram > t_dca


def test_writeback_descriptors_touch_memory():
    engine, hierarchy = make_engine()
    engine.writeback_descriptors(0, 4, desc_addrs=[0x5000, 0x5010,
                                                   0x5020, 0x5030])
    assert hierarchy.llc.contains(0x5000)


@given(dca=st.booleans(),
       base=st.integers(min_value=0x10000, max_value=0x10000 + 4096),
       nbytes=st.integers(min_value=0, max_value=3000))
@settings(max_examples=100, deadline=None)
def test_line_counts_match_lines_covering(dca, base, nbytes):
    engine, hierarchy = make_engine(dca=dca)
    engine.write_packet(0, base, nbytes)
    engine.read_packet(0, base, nbytes)
    n_lines = len(lines_covering(base, nbytes))
    assert engine.lines_written == hierarchy.dma_lines_written == n_lines
    assert engine.lines_read == hierarchy.dma_lines_read == n_lines
    assert engine.invariant_failures() == []


def test_line_cap_holds_at_worst_alignment():
    # 63 bytes at offset 2 span two lines: the most a 63-byte packet can.
    engine, hierarchy = make_engine()
    engine.write_packet(0, 0x10002, 63)
    engine.read_packet(0, 0x10002, 63)
    assert engine.lines_written == engine.lines_read == 2
    assert engine.invariant_failures() == []
    # One line more than any alignment allows trips the cap.
    engine.lines_written += 1
    hierarchy.dma_lines_written += 1
    engine.lines_read += 1
    hierarchy.dma_lines_read += 1
    fails = engine.invariant_failures()
    assert len(fails) == 2
    assert all("exceeds the maximum" in f for f in fails)


def test_writeback_zero_count_is_noop():
    engine, _ = make_engine()
    assert engine.writeback_descriptors(1000, 0) == 1000


def test_counters():
    engine, _ = make_engine()
    engine.write_packet(0, 0x10000, 100)
    engine.read_packet(0, 0x20000, 200)
    assert engine.packets_written == 1
    assert engine.packets_read == 1
    assert engine.bytes_written == 100
    assert engine.bytes_read == 200
    engine.reset_measurement()
    assert engine.packets_written == 0


def test_config_validation():
    with pytest.raises(ValueError):
        DmaConfig(setup_ns=-1)
    with pytest.raises(ValueError):
        DmaConfig(mem_parallelism=0)
    wide = HierarchyConfig()
    wide = replace(wide, dram=DramConfig(line_size=128),
                   **{name: replace(getattr(wide, name), line_size=128)
                      for name in ("l1i", "l1d", "l2", "llc")})
    with pytest.raises(ValueError, match="line size"):
        DmaEngine(DmaConfig(), BandwidthServer("iobus", 7.6e9, 0),
                  MemoryHierarchy(wide))
