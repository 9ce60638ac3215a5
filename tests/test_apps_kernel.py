"""Unit tests for the kernel-stack applications."""

from repro.apps.iperf import IperfServer
from repro.apps.memcached_kernel import MemcachedKernel
from repro.kvstore.store import KvStore
from repro.loadgen.ether_load_gen import SyntheticConfig
from repro.loadgen.memcached_client import MemcachedClientConfig
from repro.system.node import KernelNode
from repro.system.presets import gem5_default


def build_iperf(count=50, size=1518, gbps=2.0, horizon_us=3000.0):
    node = KernelNode(gem5_default(), seed=5)
    node.install_app(IperfServer)
    loadgen = node.attach_loadgen()
    loadgen.start_synthetic(SyntheticConfig(packet_size=size,
                                            rate_gbps=gbps, count=count))
    node.run_us(horizon_us)
    return node, loadgen


class TestIperf:
    def test_receives_all_segments(self):
        node, _loadgen = build_iperf()
        assert node.app.segments == 50
        assert node.app.bytes_received == 50 * 1518

    def test_acks_every_segment(self):
        node, loadgen = build_iperf()
        assert node.app.acks_sent == 50
        assert loadgen.rx_packets == 50

    def test_interrupt_driven(self):
        node, _loadgen = build_iperf()
        assert node.app.interrupts > 0
        assert node.driver.interrupts_taken > 0

    def test_throughput_helper(self):
        node, _loadgen = build_iperf()
        from repro.sim.ticks import us_to_ticks
        gbps = node.app.throughput_gbps(us_to_ticks(1000))
        assert gbps > 0

    def test_kernel_ring_size_used(self):
        node, _loadgen = build_iperf()
        assert node.nic.rx_ring.size == gem5_default().kernel_rx_ring

    def test_busier_core_than_dpdk_for_same_load(self):
        from repro.apps.testpmd import TestPmd as PmdApp
        from repro.system.node import DpdkNode
        knode, _ = build_iperf(count=40, size=512)
        dnode = DpdkNode(gem5_default(), seed=5)
        dnode.install_app(PmdApp)
        lg = dnode.attach_loadgen()
        dnode.start()
        lg.start_synthetic(SyntheticConfig(packet_size=512, rate_gbps=2.0,
                                           count=40))
        dnode.run_us(3000.0)
        assert knode.core.busy_ns > 3 * dnode.core.busy_ns


class TestMemcachedKernel:
    def test_serves_requests(self):
        node = KernelNode(gem5_default(), seed=6)
        store = KvStore(node.address_space)
        node.install_app(MemcachedKernel, store=store)
        client = node.attach_memcached_client(MemcachedClientConfig(
            n_warm_keys=30, n_requests=60, rate_rps=100_000.0))
        client.preload(store)
        client.start()
        node.run_us(4000.0)
        assert node.app.requests_served == 60
        assert client.responses_received == 60
        assert client.drop_rate == 0.0

    def test_parse_errors_counted(self):
        node = KernelNode(gem5_default(), seed=6)
        store = KvStore(node.address_space)
        node.install_app(MemcachedKernel, store=store)
        loadgen = node.attach_loadgen()
        loadgen.start_synthetic(SyntheticConfig(packet_size=256,
                                                rate_gbps=1.0, count=20))
        node.run_us(3000.0)
        assert node.app.parse_errors == 20

    def test_stats_reset(self):
        node = KernelNode(gem5_default(), seed=6)
        store = KvStore(node.address_space)
        node.install_app(MemcachedKernel, store=store)
        client = node.attach_memcached_client(MemcachedClientConfig(
            n_warm_keys=10, n_requests=20, rate_rps=100_000.0))
        client.preload(store)
        client.start()
        node.run_us(3000.0)
        node.reset_measurement()
        assert node.app.requests_served == 0
        assert node.app.packets_processed == 0
