"""Unit tests for the e1000 poll-mode driver."""

import pytest

from repro.dpdk.hugepages import HugepageAllocator
from repro.dpdk.mempool import Mempool
from repro.dpdk.pmd import E1000Pmd, PmdLaunchError
from repro.mem.address import AddressSpace
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.xbar import BandwidthServer
from repro.net.packet import Packet
from repro.nic.dma import DmaConfig, DmaEngine
from repro.nic.i8254x import I8254xNic, NicConfig, NicQuirks
from repro.pci.uio import UioPciGeneric
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from tests.conftest import check_components


def build(nic_config=None, bind=True, mbufs=64):
    sim = Simulation()
    space = AddressSpace()
    hierarchy = MemoryHierarchy()
    bus = BandwidthServer("iobus", 7.6e9)
    dma = DmaEngine(DmaConfig(), bus, hierarchy)
    nic = I8254xNic(sim, "nic0", nic_config or NicConfig(), dma, space)
    check_components(sim, nic, dma)
    if bind:
        UioPciGeneric().bind(nic)
    pool = Mempool("p", HugepageAllocator(space, 256), n_mbufs=mbufs)
    return sim, nic, pool


def test_launch_requires_uio_binding():
    _sim, nic, pool = build(bind=False)
    with pytest.raises(PmdLaunchError, match="uio_pci_generic"):
        E1000Pmd(nic, pool)


def test_launch_fails_without_imr():
    """Paper §III.A.5: PMD cannot launch when the IMR is unimplemented."""
    _sim, nic, pool = build(NicConfig(quirks=NicQuirks.baseline_gem5()))
    with pytest.raises(PmdLaunchError, match="Interrupt Mask Register"):
        E1000Pmd(nic, pool)


def test_launch_masks_interrupts():
    _sim, nic, pool = build()
    E1000Pmd(nic, pool)
    assert nic.device_interrupts_masked()


def test_rx_burst_empty():
    _sim, nic, pool = build()
    pmd = E1000Pmd(nic, pool)
    assert pmd.rx_burst() == []
    assert pmd.empty_rx_bursts == 1


def test_rx_path_allocates_mbufs_and_harvests():
    sim, nic, pool = build()
    pmd = E1000Pmd(nic, pool)
    for _ in range(8):
        nic.port.deliver(Packet(wire_len=256))
    sim.run(until=us_to_ticks(50))
    frames = pmd.rx_burst(32)
    assert len(frames) == 8
    assert all(f.mbuf is not None for f in frames)
    assert pool.in_use == 8   # frames still owned by the app


def test_rx_burst_replenishes_ring():
    sim, nic, pool = build()
    pmd = E1000Pmd(nic, pool)
    for _ in range(8):
        nic.port.deliver(Packet(wire_len=64))
    sim.run(until=us_to_ticks(50))
    before = nic.rx_ring.nic_free_descriptors
    pmd.rx_burst(32)
    assert nic.rx_ring.nic_free_descriptors == before + 8


def test_tx_burst_and_buffer_recycling():
    sim, nic, pool = build()
    from repro.nic.phy import EtherLink, EtherPort
    link = EtherLink(sim, "link")
    link.connect(nic.port, EtherPort("sink", lambda p: None))
    check_components(sim, link)
    pmd = E1000Pmd(nic, pool)
    for _ in range(4):
        nic.port.deliver(Packet(wire_len=128))
    sim.run(until=us_to_ticks(50))
    frames = pmd.rx_burst(32)
    sent = pmd.tx_burst(frames)
    assert sent == 4
    sim.run(until=us_to_ticks(200))
    assert pool.in_use == 0   # freed on TX completion


def test_tx_burst_partial_when_ring_full():
    sim, nic, pool = build(NicConfig(tx_ring_size=2))
    pmd = E1000Pmd(nic, pool)
    # Stall the TX DMA by giving it no time to run.
    for _ in range(4):
        nic.port.deliver(Packet(wire_len=64))
    sim.run(until=us_to_ticks(50))
    frames = pmd.rx_burst(32)
    sent = pmd.tx_burst(frames)
    assert sent <= 2 or sent == len(frames)


def test_free_returns_mbuf():
    sim, nic, pool = build()
    pmd = E1000Pmd(nic, pool)
    nic.port.deliver(Packet(wire_len=64))
    sim.run(until=us_to_ticks(50))
    frames = pmd.rx_burst(1)
    pmd.free(frames[0])
    assert pool.in_use == 0


def test_counters():
    sim, nic, pool = build()
    pmd = E1000Pmd(nic, pool)
    for _ in range(3):
        nic.port.deliver(Packet(wire_len=64))
    sim.run(until=us_to_ticks(50))
    pmd.rx_burst(32)
    assert nic.rx_ring.harvested_total == 3
    assert pmd.rx_bursts == 1


def test_baseline_quirk_degrades_writeback_to_full_cache():
    config = NicConfig(
        quirks=NicQuirks(imr_implemented=True,
                         pmd_writeback_threshold_works=False))
    sim, nic, pool = build(config)
    E1000Pmd(nic, pool)
    assert nic.rx_ring.writeback_threshold == nic.rx_ring.desc_cache_size
    assert nic._wb_timer_disabled
