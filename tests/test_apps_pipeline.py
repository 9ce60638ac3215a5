"""Unit tests for pipeline mode (paper §II.A) and the UDP synthetic
protocol extension."""

import pytest

from repro.loadgen.ether_load_gen import SyntheticConfig
from repro.net.headers import parse_udp_frame
from repro.system.node import DpdkNode
from repro.system.presets import gem5_default


def build_pipeline(touch_payload=False, ring_size=1024, count=60,
                   size=256, gbps=2.0):
    node = DpdkNode(gem5_default(), seed=21)
    node.install_pipeline_app(ring_size=ring_size,
                              touch_payload=touch_payload)
    loadgen = node.attach_loadgen()
    node.start()
    loadgen.start_synthetic(SyntheticConfig(packet_size=size,
                                            rate_gbps=gbps, count=count))
    node.run_us(4000.0)
    return node, loadgen


class TestPipelineMode:
    def test_forwards_through_the_ring(self):
        node, loadgen = build_pipeline()
        assert node.app.packets_received == 60
        assert node.app.packets_processed == 60
        assert node.app.packets_forwarded == 60
        assert loadgen.rx_packets == 60

    def test_both_cores_do_work(self):
        node, _loadgen = build_pipeline()
        assert node.core.busy_ns > 0           # RX stage
        assert node.worker_core.busy_ns > 0    # worker stage

    def test_deep_worker_costs_more(self):
        shallow, _ = build_pipeline(touch_payload=False, size=1518,
                                    count=40)
        deep, _ = build_pipeline(touch_payload=True, size=1518, count=40)
        assert deep.worker_core.busy_ns > 3 * shallow.worker_core.busy_ns

    def test_small_ring_backpressure_drops(self):
        node, _loadgen = build_pipeline(touch_payload=True, ring_size=8,
                                        count=2000, size=1518, gbps=20.0)
        assert node.app.ring_full_drops > 0
        # Dropped frames returned their buffers.
        assert node.mempool.in_use == 0

    def test_mbufs_recycled_after_tx(self):
        node, _loadgen = build_pipeline()
        assert node.mempool.in_use == 0

    def test_stats_reset(self):
        node, _loadgen = build_pipeline()
        node.reset_measurement()
        assert node.app.packets_processed == 0


class TestUdpSyntheticProtocol:
    def test_udp_frames_are_parsable(self):
        node = DpdkNode(gem5_default(), seed=22)
        from repro.apps.testpmd import TestPmd as PmdApp  # noqa: N811
        node.install_app(PmdApp)
        received = []
        original = node.nic.port.on_receive

        def tap(packet):
            received.append(packet)
            original(packet)

        node.nic.port.on_receive = tap
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(
            packet_size=256, rate_gbps=1.0, count=10, protocol="udp"))
        node.run_us(2000.0)
        assert len(received) == 10
        ip, udp, payload = parse_udp_frame(received[0])
        assert udp.dst_port == 7000
        assert received[0].wire_len == 256

    def test_udp_round_trip_latency_still_measured(self):
        node = DpdkNode(gem5_default(), seed=23)
        from repro.apps.testpmd import TestPmd as PmdApp  # noqa: N811
        node.install_app(PmdApp)
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(
            packet_size=128, rate_gbps=1.0, count=15, protocol="udp"))
        node.run_us(2000.0)
        assert loadgen.rx_packets == 15
        assert loadgen.latency.summary()["count"] == 15

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(protocol="sctp")
