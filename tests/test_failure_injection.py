"""Failure-injection tests: the simulator degrades, it does not crash."""

from repro.apps.testpmd import TestPmd as PmdApp  # noqa: N811
from repro.apps.touchfwd import TouchFwd
from repro.loadgen.ether_load_gen import SyntheticConfig
from repro.system.node import DpdkNode
from repro.system.presets import gem5_default


class TestMempoolStarvation:
    def _starved_node(self):
        """A node whose mempool is far too small for its rings."""
        from dataclasses import replace
        base = gem5_default()
        config = base.variant(
            nic=replace(base.nic, rx_ring_size=16, tx_ring_size=16),
            mempool_mbufs=8)
        node = DpdkNode(config, seed=31)
        # Defeat the builder's covers-the-rings floor to force starvation.
        from repro.dpdk.mempool import Mempool
        node.mempool = Mempool("tiny", node.hugepages, n_mbufs=8)
        node.pmd.mempool = node.mempool
        return node

    def test_starvation_stalls_instead_of_crashing(self):
        node = self._starved_node()
        node.install_app(TouchFwd)   # slow consumer
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(packet_size=1518,
                                                rate_gbps=40.0, count=3000))
        node.run_us(2000.0)          # must not raise
        assert node.nic.rx_buffer_starved > 0

    def test_starved_node_still_makes_progress(self):
        node = self._starved_node()
        node.install_app(PmdApp)
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(packet_size=256,
                                                rate_gbps=20.0, count=3000))
        node.run_us(3000.0)
        # The pool recycles through TX completions: forwarding continues.
        assert node.app.packets_forwarded > 100

    def test_buffers_conserved_under_starvation(self):
        node = self._starved_node()
        node.install_app(PmdApp)
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(packet_size=256,
                                                rate_gbps=20.0, count=1000))
        node.run_us(3000.0)
        loadgen.stop()
        node.run_us(3000.0)
        assert node.mempool.in_use == 0   # every mbuf came home


class TestMisbehavingTraffic:
    def test_undersized_payload_frames_do_not_crash_parsers(self):
        """Garbage traffic into a parsing server must be counted, not
        fatal (exercised for memcached in the app tests; here for the
        generic forwarding path with byte-carrying frames)."""
        node = DpdkNode(gem5_default(), seed=32)
        node.install_app(PmdApp)
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(packet_size=64,
                                                rate_gbps=1.0, count=50,
                                                protocol="udp"))
        node.run_us(2000.0)
        assert node.app.packets_processed == 50

    def test_zero_count_loadgen_is_a_noop(self):
        node = DpdkNode(gem5_default(), seed=33)
        node.install_app(PmdApp)
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(packet_size=64,
                                                rate_gbps=1.0, count=1))
        node.run_us(1000.0)
        assert loadgen.tx_packets == 1
