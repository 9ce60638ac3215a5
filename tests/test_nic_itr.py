"""Unit tests for interrupt throttling (the 8254x ITR register)."""

from repro.mem.address import AddressSpace
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.xbar import BandwidthServer
from repro.net.packet import Packet
from repro.nic.dma import DmaConfig, DmaEngine
from repro.nic.i8254x import I8254xNic, NicConfig
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from tests.conftest import check_components


def build(itr_us=0.0, wb_threshold=1):
    sim = Simulation()
    hierarchy = MemoryHierarchy()
    dma = DmaEngine(DmaConfig(), BandwidthServer("iobus", 7.6e9), hierarchy)
    nic = I8254xNic(sim, "nic0", NicConfig(itr_us=itr_us,
                                           writeback_threshold=wb_threshold),
                    dma, AddressSpace())
    check_components(sim, nic, dma)
    state = {"next": 0x100000}

    def source(packet):
        addr = state["next"]
        state["next"] += 2048
        return addr

    nic.rx_buffer_source = source
    notifications = []
    nic.rx_notify = lambda count: notifications.append((sim.now, count))
    return sim, nic, notifications


def burst(nic, n, size=64):
    for _ in range(n):
        nic.port.deliver(Packet(wire_len=size))


def test_no_throttling_by_default():
    sim, nic, notifications = build(itr_us=0.0)
    burst(nic, 10)
    sim.run(until=us_to_ticks(100))
    # Threshold 1: one writeback (and one notify) per packet.
    assert len(notifications) == 10


def test_itr_coalesces_notifications():
    sim, nic, notifications = build(itr_us=50.0)
    burst(nic, 10)
    sim.run(until=us_to_ticks(500))
    assert len(notifications) < 10
    assert sum(count for _t, count in notifications) == 10


def test_itr_enforces_min_spacing():
    sim, nic, notifications = build(itr_us=50.0)
    burst(nic, 10)
    sim.run(until=us_to_ticks(500))
    gaps = [b - a for (a, _), (b, _) in zip(notifications,
                                            notifications[1:])]
    assert all(gap >= us_to_ticks(50) for gap in gaps)


def test_itr_no_notification_lost():
    sim, nic, notifications = build(itr_us=20.0)
    for wave in range(3):
        burst(nic, 5)
        sim.run(until=sim.now + us_to_ticks(100))
    sim.run(until=sim.now + us_to_ticks(200))
    assert sum(count for _t, count in notifications) == 15


def test_isolated_packet_notified_promptly():
    sim, nic, notifications = build(itr_us=50.0)
    burst(nic, 1)
    sim.run(until=us_to_ticks(20))
    # First notification is not delayed (window starts empty).
    assert len(notifications) == 1
    assert notifications[0][0] < us_to_ticks(20)
