"""Cross-module integration tests: full node, trace replay, dual mode."""

from repro.apps.memcached_dpdk import MemcachedDpdk
from repro.apps.testpmd import TestPmd as PmdApp  # noqa: N811
from repro.kvstore.store import KvStore
from repro.loadgen.ether_load_gen import (
    DEFAULT_DST_MAC,
    DEFAULT_SRC_MAC,
    SyntheticConfig,
    TraceConfig,
)
from repro.loadgen.memcached_client import (
    MemcachedClient,
    MemcachedClientConfig,
)
from repro.net.pcap import PcapReader
from repro.system.dual_mode import run_dual_mode_comparison
from repro.system.node import DpdkNode
from repro.system.presets import gem5_default


class TestTraceReplayPipeline:
    """The full §IV trace story: a DPDK KVS client records its request
    stream as a PCAP (dpdk-pdump), EtherLoadGen replays it against the
    simulated server, and the server answers every request."""

    def test_recorded_trace_replays_against_server(self, tmp_path):
        # 1. Record a client trace (the dpdk-pdump integration).
        config = gem5_default()
        node = DpdkNode(config, seed=11)
        store = KvStore(node.address_space)
        node.install_app(MemcachedDpdk, store=store)
        recorder = MemcachedClient(
            node.sim, "recorder",
            MemcachedClientConfig(n_warm_keys=40, n_requests=60,
                                  rate_rps=500_000.0),
            dst_mac=DEFAULT_DST_MAC, src_mac=DEFAULT_SRC_MAC)
        recorder.preload(store)
        trace_path = tmp_path / "kvs.pcap"
        recorder.write_trace(trace_path, n_requests=60)

        # 2. Replay it through EtherLoadGen trace mode.
        loadgen = node.attach_loadgen()
        records = PcapReader(trace_path).read_all()
        node.start()
        loadgen.start_trace(TraceConfig(records=records))
        node.run_us(5000.0)

        # 3. The server parsed and served every request.
        assert node.app.requests_served == 60
        assert node.app.parse_errors == 0
        assert loadgen.rx_packets == 60   # responses came back

    def test_trace_vs_synthetic_same_infrastructure(self, tmp_path):
        """Trace mode and synthetic mode drive the same NIC path."""
        config = gem5_default()
        node = DpdkNode(config, seed=12)
        node.install_app(PmdApp)
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(packet_size=256,
                                                rate_gbps=1.0, count=50))
        node.run_us(3000.0)
        assert loadgen.rx_packets == 50


class TestDualMode:
    def test_dpdk_speedup_positive(self):
        result = run_dual_mode_comparison(gem5_default(), kernel=False,
                                          n_requests=400,
                                          rate_rps=150_000.0)
        assert result.dual_responses == 400
        assert result.loadgen_responses == 400
        # EtherLoadGen must be faster than simulating the Drive Node.
        assert result.speedup_fraction > 0.0

    def test_kernel_speedup_positive(self):
        result = run_dual_mode_comparison(gem5_default(), kernel=True,
                                          n_requests=400,
                                          rate_rps=120_000.0)
        # The cold-started kernel server may still be draining its last
        # few requests at the horizon; require near-complete delivery.
        assert result.dual_responses >= 380
        assert result.loadgen_responses >= 380
        assert result.speedup_fraction > 0.0

    def test_drive_node_keys_are_distinct_zipf_sized(self):
        """The simulated Drive Node sends the paper's keys: unique, with
        Zipf lengths from 10 to 100 bytes (the stream seeded as in
        ``run_dual_mode_comparison``'s default seed 7)."""
        from repro.sim.rng import DeterministicRng
        from repro.system.dual_mode import _ClientWorkload

        keys = _ClientWorkload(DeterministicRng(7).fork("client.workload")).keys
        assert len(set(keys)) == len(keys) == 512
        assert all(10 <= len(key) <= 100 for key in keys)
        assert max(len(key) for key in keys) > 12


class TestDeterminism:
    def test_same_seed_same_results(self):
        def run():
            node = DpdkNode(gem5_default(), seed=99)
            node.install_app(PmdApp)
            loadgen = node.attach_loadgen()
            node.start()
            loadgen.start_synthetic(SyntheticConfig(
                packet_size=256, rate_gbps=30.0, count=800,
                distribution="exponential"))
            node.run_us(4000.0)
            return (loadgen.rx_packets, loadgen.tx_packets,
                    node.nic.drop_fsm.counts.copy(),
                    round(node.core.busy_ns, 3))

        assert run() == run()

    def test_different_seed_different_arrivals(self):
        def run(seed):
            node = DpdkNode(gem5_default(), seed=seed)
            node.install_app(PmdApp)
            loadgen = node.attach_loadgen()
            node.start()
            loadgen.start_synthetic(SyntheticConfig(
                packet_size=256, rate_gbps=5.0, count=100,
                distribution="exponential"))
            node.run_us(3000.0)
            return loadgen.latency.summary()["mean"]

        assert run(1) != run(2)
