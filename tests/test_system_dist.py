"""Two whole simulations coupled dist-gem5 style (paper Fig 1a).

Each side is its own :class:`Simulation`; one link joins them through
a :class:`~repro.sim.channel.ChannelHalf` per side, and an
:class:`~repro.sim.channel.InProcessCoupler` advances both in
synchronized epochs no longer than the link latency — the same
``begin_epoch``/``finish_epoch`` path the multiprocess shard runner
drives.  ``test_dist_channel.py`` covers the channel layer's own
properties; this file covers what two coupled simulations see.
"""

import pytest

from repro.net.packet import MacAddress, Packet
from repro.nic.phy import EtherPort
from repro.sim.channel import (
    ChannelError,
    ChannelGroup,
    ChannelHalf,
    InProcessCoupler,
)
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from tests.conftest import check_components

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")

BANDWIDTH = 100e9


def _mk_packet(size, index=0):
    return Packet(size, dst=MAC_B, src=MAC_A,
                  data=index.to_bytes(4, "big"))


def _couple(ends, delay_ticks, bandwidth=BANDWIDTH):
    """Join two ``(simulation, device port)`` ends with one link."""
    groups = {}
    for shard, (sim, port) in enumerate(ends):
        half = ChannelHalf(sim, "link", peer_shard=1 - shard,
                           bandwidth_bits_per_sec=bandwidth,
                           delay_ticks=delay_ticks)
        half.attach(port)
        check_components(sim, half)
        groups[shard] = ChannelGroup(sim, [half])
    return InProcessCoupler(groups)


def build_pair(delay_us=200.0):
    """Two simulations with one logging port each, coupled by a link;
    returns the sims, the ports, the received-frame logs, the coupler."""
    sims = (Simulation(seed=1), Simulation(seed=2))
    logs = ([], [])
    ports = [EtherPort(f"n{i}.port",
                       lambda p, sim=sim, log=log: log.append((sim.now, p)))
             for i, (sim, log) in enumerate(zip(sims, logs))]
    return sims, ports, logs, _couple(zip(sims, ports),
                                      us_to_ticks(delay_us))


class TestCrossSimDelivery:
    def test_frame_crosses_simulations(self):
        _sims, (port_a, _pb), (_ra, rx_b), coupler = build_pair()
        port_a.send(_mk_packet(256))
        coupler.advance(us_to_ticks(1000))
        assert len(rx_b) == 1

    def test_delivery_respects_link_latency(self):
        _sims, (port_a, _pb), (_ra, rx_b), coupler = build_pair(
            delay_us=200.0)
        port_a.send(_mk_packet(64))
        coupler.advance(us_to_ticks(1000))
        tick, _packet = rx_b[0]
        assert tick >= us_to_ticks(200)
        assert tick <= us_to_ticks(201)

    def test_bidirectional(self):
        _sims, (port_a, port_b), (rx_a, rx_b), coupler = build_pair()
        port_a.send(_mk_packet(64, 0))
        port_b.send(_mk_packet(64, 1))
        coupler.advance(us_to_ticks(1000))
        assert len(rx_a) == 1
        assert len(rx_b) == 1

    def test_many_frames_all_arrive_in_order(self):
        (sim_a, _sb), (port_a, _pb), (_ra, rx_b), coupler = build_pair()
        for i in range(50):
            sim_a.events.call_at(
                us_to_ticks(i),
                lambda i=i: port_a.send(_mk_packet(64, i)))
        coupler.advance(us_to_ticks(2000))
        assert len(rx_b) == 50
        ticks = [t for t, _p in rx_b]
        assert ticks == sorted(ticks)
        assert [int.from_bytes(p.data, "big") for _t, p in rx_b] == \
            list(range(50))

    def test_response_round_trip(self):
        """An echo across the pair takes two link latencies."""
        _sims, (port_a, port_b), (rx_a, _rb), coupler = build_pair(
            delay_us=100.0)
        port_b.on_receive = lambda p: port_b.send(p.response_to())
        port_a.send(Packet(64, dst=MAC_B, src=MAC_A, ts_tx=0))
        coupler.advance(us_to_ticks(1000))
        assert len(rx_a) == 1
        tick, _packet = rx_a[0]
        assert tick >= us_to_ticks(200)


class TestSynchronization:
    def test_skew_bounded_by_quantum(self):
        sims, (port_a, _pb), _logs, coupler = build_pair()
        quantum = coupler.groups[0].quantum_ticks
        skews = []

        def probe(own, peer):
            skews.append(abs(own.now - peer.now))
            own.events.call_after(us_to_ticks(10),
                                  lambda: probe(own, peer))

        for own, peer in (sims, sims[::-1]):
            own.events.call_at(0, lambda own=own, peer=peer:
                               probe(own, peer))
        port_a.send(_mk_packet(64))
        coupler.advance(us_to_ticks(777))
        # Inside an epoch one side runs ahead of the other, never by
        # more than a quantum; at the target both stand still together.
        assert 0 < max(skews) <= quantum
        assert sims[0].now == sims[1].now == us_to_ticks(777)

    def test_quantum_defaults_to_min_latency(self):
        _sims, _ports, _logs, coupler = build_pair(delay_us=200.0)
        assert coupler.groups[0].quantum_ticks == us_to_ticks(200)
        sim = Simulation(seed=0)
        slow = ChannelHalf(sim, "slow", peer_shard=1, delay_ticks=500)
        fast = ChannelHalf(sim, "fast", peer_shard=2, delay_ticks=200)
        assert ChannelGroup(sim, [slow, fast]).quantum_ticks == 200

    def test_oversized_quantum_rejected(self):
        sim = Simulation()
        half = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=1000)
        with pytest.raises(ChannelError, match="quantum"):
            ChannelGroup(sim, [half], quantum_ticks=2000)

    def test_zero_latency_link_rejected(self):
        with pytest.raises(ValueError, match="latency"):
            ChannelHalf(Simulation(), "link", peer_shard=1, delay_ticks=0)

    def test_barriers_counted(self):
        _sims, _ports, _logs, coupler = build_pair(delay_us=100.0)
        coupler.advance(us_to_ticks(1000))
        assert [g.epoch for g in coupler.groups.values()] == [10, 10]

    def test_run_is_resumable(self):
        _sims, (port_a, _pb), (_ra, rx_b), coupler = build_pair()
        port_a.send(_mk_packet(64))
        coupler.advance(us_to_ticks(100))
        assert rx_b == []          # below the link latency
        coupler.advance(us_to_ticks(1000))
        assert len(rx_b) == 1

    def test_double_attach_rejected(self):
        _sims, (port_a, _pb), _logs, coupler = build_pair()
        with pytest.raises(RuntimeError, match="already connected"):
            coupler.groups[0].halves[0].attach(port_a)


class TestDistNodeTopology:
    """A full Test Node in one simulation, EtherLoadGen in another —
    the two-process dist-gem5 topology of Fig 1a."""

    def test_testpmd_served_across_simulations(self):
        from repro.apps.testpmd import TestPmd
        from repro.loadgen.ether_load_gen import EtherLoadGen, SyntheticConfig
        from repro.system.node import DpdkNode
        from repro.system.presets import gem5_default

        config = gem5_default()
        node = DpdkNode(config, seed=41)
        node.install_app(TestPmd)
        client_sim = Simulation(seed=42)
        loadgen = EtherLoadGen(client_sim, "dist_loadgen")
        check_components(client_sim, loadgen)
        coupler = _couple([(client_sim, loadgen.port),
                           (node.sim, node.nic.port)],
                          us_to_ticks(config.link_delay_us),
                          config.link_bandwidth_bps)

        node.start()
        loadgen.start_synthetic(SyntheticConfig(packet_size=256,
                                                rate_gbps=2.0, count=60))
        coupler.advance(us_to_ticks(3000))
        assert node.app.packets_processed == 60
        assert loadgen.rx_packets == 60
        # The round trip crosses the link in both directions.
        assert loadgen.latency.summary()["min"] >= 2 * config.link_delay_us
        assert [g.epoch for g in coupler.groups.values()] == [15, 15]
        assert client_sim.now == node.sim.now
