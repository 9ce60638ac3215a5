"""Unit tests for the DPDK applications against a full node."""

import pytest

from repro.apps.memcached_dpdk import MemcachedDpdk
from repro.apps.rxptx import RxPTx
from repro.apps.testpmd import TestPmd as PmdApp  # noqa: N811
from repro.apps.touchdrop import TouchDrop
from repro.apps.touchfwd import TouchFwd

from repro.kvstore.store import KvStore
from repro.loadgen.ether_load_gen import SyntheticConfig
from repro.loadgen.memcached_client import MemcachedClientConfig
from repro.system.node import DpdkNode
from repro.system.presets import gem5_default


def run_app(app_class, app_options=None, count=60, size=256, gbps=2.0,
            horizon_us=3000.0):
    node = DpdkNode(gem5_default(), seed=3)
    options = dict(app_options or {})
    if app_class is MemcachedDpdk:
        options["store"] = KvStore(node.address_space)
    node.install_app(app_class, **options)
    loadgen = node.attach_loadgen()
    node.start()
    loadgen.start_synthetic(SyntheticConfig(packet_size=size,
                                            rate_gbps=gbps, count=count))
    node.run_us(horizon_us)
    return node, loadgen


class TestTestPmd:
    def test_forwards_every_packet(self):
        node, loadgen = run_app(PmdApp)
        assert node.app.packets_processed == 60
        assert node.app.packets_forwarded == 60
        assert loadgen.rx_packets == 60

    def test_macswap_swaps_addresses(self):
        node, loadgen = run_app(PmdApp)
        # Responses arrive back at the loadgen: src/dst must be swapped,
        # which is exactly why they were delivered to the loadgen's port.
        assert loadgen.drop_rate == 0.0

    def test_io_mode_forwards_unmodified(self):
        node, loadgen = run_app(PmdApp, {"forward_mode": "io"})
        assert node.app.packets_forwarded == 60

    def test_unknown_mode_rejected(self):
        node = DpdkNode(gem5_default(), seed=3)
        with pytest.raises(ValueError):
            node.install_app(PmdApp, forward_mode="bounce")

    def test_latency_echo(self):
        _node, loadgen = run_app(PmdApp)
        assert loadgen.latency.summary()["count"] == 60
        # RTT at least twice the 200us link delay.
        assert loadgen.latency.summary()["min"] >= 400.0


class TestTouchFwd:
    def test_forwards_with_payload_touch(self):
        node, loadgen = run_app(TouchFwd, count=40)
        assert node.app.packets_forwarded == 40
        assert loadgen.rx_packets == 40

    def test_slower_than_testpmd(self):
        node_fwd, _ = run_app(TouchFwd, count=40, size=1518)
        node_pmd, _ = run_app(PmdApp, count=40, size=1518)
        assert node_fwd.core.busy_ns > 2 * node_pmd.core.busy_ns

    def test_touch_scales_with_packet_size(self):
        small, _ = run_app(TouchFwd, count=40, size=64)
        large, _ = run_app(TouchFwd, count=40, size=1518)
        assert large.core.busy_ns > 5 * small.core.busy_ns


class TestTouchDrop:
    def test_consumes_without_transmitting(self):
        node, loadgen = run_app(TouchDrop, count=50)
        assert node.app.packets_processed == 50
        assert node.app.packets_dropped_by_app == 50
        assert node.app.packets_forwarded == 0
        assert loadgen.rx_packets == 0   # "drop rate is always 100%"

    def test_mbufs_recycled(self):
        node, _loadgen = run_app(TouchDrop, count=50)
        assert node.mempool.in_use == 0


class TestRxPTx:
    def test_forwards(self):
        node, loadgen = run_app(RxPTx, {"proc_time_ns": 10.0}, count=40)
        assert loadgen.rx_packets == 40

    def test_processing_interval_costs_time(self):
        fast, _ = run_app(RxPTx, {"proc_time_ns": 10.0}, count=40)
        slow, _ = run_app(RxPTx, {"proc_time_ns": 10000.0}, count=40)
        assert slow.core.busy_ns > fast.core.busy_ns

    def test_negative_proc_time_rejected(self):
        node = DpdkNode(gem5_default(), seed=3)
        with pytest.raises(ValueError):
            node.install_app(RxPTx, proc_time_ns=-1.0)


class TestMemcachedDpdk:
    def test_serves_requests_end_to_end(self):
        node = DpdkNode(gem5_default(), seed=4)
        store = KvStore(node.address_space)
        node.install_app(MemcachedDpdk, store=store)
        client = node.attach_memcached_client(MemcachedClientConfig(
            n_warm_keys=30, n_requests=80, rate_rps=200_000.0))
        client.preload(store)
        node.start()
        client.start()
        node.run_us(3000.0)
        assert node.app.requests_served == 80
        assert client.responses_received == 80
        assert client.get_misses == 0

    def test_non_memcached_traffic_dropped_not_crashed(self):
        node, loadgen = run_app(MemcachedDpdk, count=30)
        assert node.app.parse_errors == 30
        assert loadgen.rx_packets == 0


class TestAppLifecycle:
    def test_stop_halts_polling(self):
        node, loadgen = run_app(PmdApp, count=60)
        node.app.stop()
        before = node.app.packets_processed
        node.run_us(500.0)
        assert node.app.packets_processed == before

    def test_stats_reset_clears_app_counters(self):
        node, _loadgen = run_app(PmdApp, count=60)
        node.reset_measurement()
        assert node.app.packets_processed == 0
