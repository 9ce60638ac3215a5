"""Unit tests for Ethernet ports and links."""

import pytest

from repro.net.packet import Packet
from repro.nic.phy import EtherLink, EtherPort
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from tests.conftest import check_components


def build(bandwidth=100e9, delay=0):
    sim = Simulation()
    rx_a, rx_b = [], []
    port_a = EtherPort("a", rx_a.append)
    port_b = EtherPort("b", rx_b.append)
    link = EtherLink(sim, "link", bandwidth_bits_per_sec=bandwidth,
                     delay_ticks=delay)
    link.connect(port_a, port_b)
    check_components(sim, link)
    return sim, link, port_a, port_b, rx_a, rx_b


def test_delivery_between_ports():
    sim, _link, port_a, _port_b, _rx_a, rx_b = build()
    packet = Packet(wire_len=64)
    port_a.send(packet)
    sim.run()
    assert rx_b == [packet]


def test_bidirectional():
    sim, _link, port_a, port_b, rx_a, rx_b = build()
    port_a.send(Packet(wire_len=64))
    port_b.send(Packet(wire_len=64))
    sim.run()
    assert len(rx_a) == 1
    assert len(rx_b) == 1


def test_propagation_delay():
    delay = us_to_ticks(200)
    sim, _link, port_a, _pb, _ra, rx_b = build(delay=delay)
    port_a.send(Packet(wire_len=64))
    sim.run(until=delay - 1)
    assert rx_b == []
    sim.run()
    assert len(rx_b) == 1
    assert sim.now >= delay


def test_serialization_time():
    # 1 Gbps: a 64B frame + 20B overhead = 672 bits = 672ns.
    sim, link, port_a, _pb, _ra, rx_b = build(bandwidth=1e9)
    port_a.send(Packet(wire_len=64))
    sim.run()
    assert sim.now == 672 * 1000


def test_back_to_back_frames_serialize():
    sim, _link, port_a, _pb, _ra, rx_b = build(bandwidth=1e9)
    port_a.send(Packet(wire_len=64))
    port_a.send(Packet(wire_len=64))
    sim.run()
    assert sim.now == 2 * 672 * 1000


def test_directions_full_duplex():
    sim, _link, port_a, port_b, rx_a, rx_b = build(bandwidth=1e9)
    port_a.send(Packet(wire_len=64))
    port_b.send(Packet(wire_len=64))
    sim.run()
    # Both directions finish at the single-frame time, not double.
    assert sim.now == 672 * 1000


def test_stats_counters():
    sim, link, port_a, _pb, _ra, _rb = build()
    port_a.send(Packet(wire_len=100))
    sim.run()
    assert link.serialize_state()["sent"] == {"a": 1, "b": 0}
    assert port_a.frames_sent == 1


def test_unconnected_port_rejected():
    port = EtherPort("lonely", lambda p: None)
    with pytest.raises(RuntimeError):
        port.send(Packet(wire_len=64))


def test_double_connect_rejected():
    sim, link, port_a, port_b, _ra, _rb = build()
    with pytest.raises(RuntimeError):
        link.connect(port_a, port_b)


def test_foreign_port_rejected():
    sim, link, _pa, _pb, _ra, _rb = build()
    stranger = EtherPort("s", lambda p: None)
    with pytest.raises(ValueError):
        link.transmit(stranger, Packet(wire_len=64))


def test_bad_config_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        EtherLink(sim, "l1", bandwidth_bits_per_sec=0)
    with pytest.raises(ValueError):
        EtherLink(sim, "l2", delay_ticks=-1)
