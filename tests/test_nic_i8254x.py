"""Integration-grade unit tests for the i8254x NIC model."""

import pytest

from repro.mem.address import AddressSpace
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.xbar import BandwidthServer
from repro.net.packet import Packet
from repro.nic.dma import DmaConfig, DmaEngine
from repro.nic.drop_fsm import DropCause
from repro.nic.i8254x import (
    I8254xNic,
    ICR_RXT0,
    NicConfig,
    NicQuirks,
    REG_ICR,
    REG_IMC,
    REG_IMS,
    REG_STATUS,
)
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from tests.conftest import check_components


def build_nic(config=None, bw=7.6e9):
    sim = Simulation()
    space = AddressSpace()
    hierarchy = MemoryHierarchy()
    bus = BandwidthServer("iobus", bw)
    dma = DmaEngine(DmaConfig(), bus, hierarchy)
    nic = I8254xNic(sim, "nic0", config or NicConfig(), dma, space)
    check_components(sim, nic, dma)
    return sim, nic


def attach_buffers(nic, base=0x100000):
    """Simple driver stand-in: sequential buffers."""
    state = {"next": base}

    def source(packet):
        addr = state["next"]
        state["next"] += 2048
        return addr

    nic.rx_buffer_source = source
    return state


class TestRegisters:
    def test_status_link_up(self):
        _sim, nic = build_nic()
        assert nic.read_reg(REG_STATUS) == 0x2

    def test_ims_set_clear(self):
        _sim, nic = build_nic()
        nic.write_reg(REG_IMS, ICR_RXT0)
        assert nic.read_reg(REG_IMS) == ICR_RXT0
        nic.write_reg(REG_IMC, ICR_RXT0)
        assert nic.read_reg(REG_IMS) == 0

    def test_icr_read_clears(self):
        _sim, nic = build_nic()
        nic._icr = ICR_RXT0
        assert nic.read_reg(REG_ICR) == ICR_RXT0
        assert nic.read_reg(REG_ICR) == 0

    def test_baseline_quirk_imr_unimplemented(self):
        """Paper §III.A.5: the register exists but read/write methods do
        not — a PMD cannot operate the mask."""
        config = NicConfig(quirks=NicQuirks.baseline_gem5())
        _sim, nic = build_nic(config)
        nic.write_reg(REG_IMS, ICR_RXT0)
        assert nic.read_reg(REG_IMS) == 0
        assert not nic.interrupt_mask_operational()

    def test_fixed_imr_operational(self):
        _sim, nic = build_nic()
        assert nic.interrupt_mask_operational()

    def test_unmodelled_register_write_rejected(self):
        _sim, nic = build_nic()
        with pytest.raises(ValueError):
            nic.write_reg(0xFFFF, 1)


class TestRxDataPath:
    def test_packet_dmad_to_buffer_and_written_back(self):
        sim, nic = build_nic()
        attach_buffers(nic)
        for _ in range(8):   # default writeback threshold
            nic.port.deliver(Packet(wire_len=256))
        sim.run(until=us_to_ticks(100))
        assert nic.rx_ring.completed_count == 8
        assert nic.rx_ring.filled_total == 8

    def test_writeback_timer_flushes_partial_batch(self):
        sim, nic = build_nic()
        attach_buffers(nic)
        nic.port.deliver(Packet(wire_len=256))
        sim.run(until=us_to_ticks(1))
        assert nic.rx_ring.completed_count == 0   # below threshold
        sim.run(until=us_to_ticks(10))            # timer fires at ~2us
        assert nic.rx_ring.completed_count == 1

    def test_rx_notify_called_on_writeback(self):
        sim, nic = build_nic()
        attach_buffers(nic)
        notifications = []
        nic.rx_notify = notifications.append
        for _ in range(8):
            nic.port.deliver(Packet(wire_len=64))
        sim.run(until=us_to_ticks(100))
        assert sum(notifications) >= 8

    def test_interrupt_posted_when_unmasked(self):
        sim, nic = build_nic()
        attach_buffers(nic)
        nic.rx_notify = lambda count: None
        nic.write_reg(REG_IMS, ICR_RXT0)
        for _ in range(8):
            nic.port.deliver(Packet(wire_len=64))
        sim.run(until=us_to_ticks(100))
        assert nic.interrupts_posted >= 1

    def test_no_interrupt_when_masked(self):
        sim, nic = build_nic()
        attach_buffers(nic)
        nic.rx_notify = lambda count: None
        nic.write_reg(REG_IMC, 0xFFFFFFFF)
        for _ in range(8):
            nic.port.deliver(Packet(wire_len=64))
        sim.run(until=us_to_ticks(100))
        assert nic.interrupts_posted == 0

    def test_fifo_overflow_drops_and_classifies(self):
        config = NicConfig(rx_fifo_bytes=2048)
        sim, nic = build_nic(config, bw=1e8)   # slow DMA
        attach_buffers(nic)
        for _ in range(60):
            nic.port.deliver(Packet(wire_len=256))
        assert nic.drop_fsm.total_drops > 0
        # Rings empty: DMA's fault.
        assert nic.drop_fsm.counts[DropCause.DMA] > 0

    def test_ring_exhaustion_classified_as_core_drop(self):
        """No driver harvesting: ring fills, then FIFO fills -> CoreDrop."""
        config = NicConfig(rx_ring_size=4, rx_fifo_bytes=2048)
        sim, nic = build_nic(config)
        attach_buffers(nic)
        for _ in range(80):
            nic.port.deliver(Packet(wire_len=256))
            sim.run(until=sim.now + us_to_ticks(1))
        assert nic.drop_fsm.counts[DropCause.CORE] > 0

    def test_no_buffer_source_means_no_dma(self):
        sim, nic = build_nic()
        nic.port.deliver(Packet(wire_len=64))
        sim.run(until=us_to_ticks(10))
        assert len(nic.rx_fifo) == 1


class TestTxDataPath:
    def test_tx_enqueue_transmits_on_wire(self):
        sim, nic = build_nic()
        sent = []
        # Loop the port back into a sink.
        from repro.nic.phy import EtherLink, EtherPort
        sink = EtherPort("sink", sent.append)
        link = EtherLink(sim, "link")
        link.connect(nic.port, sink)
        check_components(sim, link)
        packet = Packet(wire_len=512)
        assert nic.tx_enqueue(0x200000, packet)
        sim.run(until=us_to_ticks(100))
        assert sent == [packet]
        assert nic.port.frames_sent == 1

    def test_tx_complete_notify_fires(self):
        sim, nic = build_nic()
        from repro.nic.phy import EtherLink, EtherPort
        link = EtherLink(sim, "link")
        link.connect(nic.port, EtherPort("sink", lambda p: None))
        check_components(sim, link)
        done = []
        nic.tx_complete_notify = done.append
        nic.tx_enqueue(0x200000, Packet(wire_len=64))
        sim.run(until=us_to_ticks(100))
        assert len(done) == 1

    def test_tx_ring_full_rejects(self):
        config = NicConfig(tx_ring_size=2)
        sim, nic = build_nic(config, bw=1e6)   # glacial DMA
        assert nic.tx_enqueue(0, Packet(wire_len=64))
        assert nic.tx_enqueue(0, Packet(wire_len=64))
        assert not nic.tx_enqueue(0, Packet(wire_len=64))


class TestStatsReset:
    def test_reset_clears_fsm_and_counters(self):
        config = NicConfig(rx_fifo_bytes=2048)
        sim, nic = build_nic(config, bw=1e8)
        attach_buffers(nic)
        for _ in range(60):
            nic.port.deliver(Packet(wire_len=256))
        nic.reset_measurement()
        assert nic.drop_fsm.total_drops == 0
        assert nic.rx_fifo.rejected == 0
