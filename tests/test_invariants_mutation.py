"""Mutation-style self-tests for the invariant checker.

Each test breaks one *real* accounting site the way a regression would —
a forgotten counter increment, a leaked buffer, a double count — and
asserts the checker catches it.  This is the test of the tests: an
invariant that never trips under deliberate corruption is not guarding
anything.

Every mutation is a monkeypatch of production code, applied for one run
of the real harness; the clean-run positive controls at the bottom pin
down the other direction (no false positives, even in strict mode and
under overload).
"""

import pytest

from repro.apps.base import DpdkApp
from repro.apps.memcached_kernel import MemcachedKernel
from repro.apps.testpmd import TestPmd as PmdApp  # noqa: N811
from repro.dpdk.pmd import E1000Pmd
from repro.harness.fabric import run_fabric
from repro.harness.runner import run_fixed_load, run_memcached
from repro.kernelstack.driver import InterruptNicDriver
from repro.loadgen.ether_load_gen import EtherLoadGen, SyntheticConfig
from repro.mem.hierarchy import MemoryHierarchy
from repro.net.fabric import FabricHost
from repro.nic.dma import DmaEngine
from repro.nic.drop_fsm import DropClassifier
from repro.nic.fifo import PacketByteFifo
from repro.sim.invariants import InvariantViolation
from repro.system import dual_mode
from repro.system.node import DpdkNode
from repro.system.presets import gem5_default

# Fast runs: accuracy is irrelevant here, only whether the checker fires.
N_PACKETS = 150
LIGHT_LOAD = dict(packet_size=256, gbps=5.0)     # zero-drop regime
OVERLOAD = dict(packet_size=64, gbps=40.0)       # heavy CoreDrop regime


@pytest.fixture(autouse=True)
def _final_mode(monkeypatch):
    """Pin the default mode regardless of the ambient environment."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "final")
    monkeypatch.delenv("REPRO_TRACE", raising=False)


def _run(**kwargs):
    merged = dict(n_packets=N_PACKETS)
    merged.update(kwargs)
    size = merged.pop("packet_size")
    gbps = merged.pop("gbps")
    app = merged.pop("app", "testpmd")
    return run_fixed_load(gem5_default(), app, size, gbps, **merged)


class TestDropAccountingMutations:
    def test_lost_drop_cause_increment_trips(self, monkeypatch):
        """Mutant: the drop FSM classifies but never counts — the bug of
        adding a drop site without wiring its cause counter."""
        orig = DropClassifier.on_packet_rx

        def mutant(self, *args, **kwargs):
            before = dict(self.counts)
            state = orig(self, *args, **kwargs)
            self.counts = before          # swallow any increment
            return state

        monkeypatch.setattr(DropClassifier, "on_packet_rx", mutant)
        with pytest.raises(InvariantViolation, match="drop-cause"):
            _run(**OVERLOAD)

    def test_fifo_count_corruption_trips(self, monkeypatch):
        """Mutant: one phantom enqueue count (an increment moved above an
        early-return, say) breaks ``enqueued == dequeued + held``."""
        orig = PacketByteFifo.try_enqueue
        corrupted = {"done": False}

        def mutant(self, packet):
            ok = orig(self, packet)
            if ok and not corrupted["done"]:
                corrupted["done"] = True
                self.enqueued += 1
            return ok

        monkeypatch.setattr(PacketByteFifo, "try_enqueue", mutant)
        with pytest.raises(InvariantViolation, match="fifo"):
            _run(**LIGHT_LOAD)


class TestBufferLifetimeMutations:
    def test_leaked_mbuf_trips_quiescence_leak_check(self, monkeypatch):
        """Mutant: the PMD forgets to free exactly one mbuf on TX
        completion — invisible to throughput, fatal hours later when the
        pool runs dry.  The quiescence-gated leak check names it now."""
        orig = E1000Pmd._on_tx_complete
        leaked = {"done": False}

        def mutant(self, packet):
            if not leaked["done"]:
                leaked["done"] = True
                packet.meta.pop("mbuf", None)   # drop the reference
                return
            orig(self, packet)

        monkeypatch.setattr(E1000Pmd, "_on_tx_complete", mutant)
        with pytest.raises(InvariantViolation, match="leaked"):
            _run(**LIGHT_LOAD)


class TestDmaAccountingMutations:
    def test_double_counted_dma_line_trips(self, monkeypatch):
        """Mutant: the hierarchy counts one DMA'd line twice per write —
        the classic stat bug that inflates reported DMA bandwidth."""
        orig = MemoryHierarchy.dma_write_lines

        def mutant(self, first_addr, n_lines, now_ns=0.0):
            ns = orig(self, first_addr, n_lines, now_ns)
            self.dma_lines_written += 1
            return ns

        monkeypatch.setattr(MemoryHierarchy, "dma_write_lines", mutant)
        with pytest.raises(InvariantViolation, match="dma"):
            _run(**LIGHT_LOAD)

    def test_double_counted_dma_read_line_trips(self, monkeypatch):
        """Mutant: the read-side twin — one TX line counted twice per
        read, so the hierarchy reports more DMA line reads than the
        engine made."""
        orig = MemoryHierarchy.dma_read_lines

        def mutant(self, first_addr, n_lines, now_ns=0.0):
            ns = orig(self, first_addr, n_lines, now_ns)
            self.dma_lines_read += 1
            return ns

        monkeypatch.setattr(MemoryHierarchy, "dma_read_lines", mutant)
        with pytest.raises(InvariantViolation, match="dma"):
            _run(**LIGHT_LOAD)


class TestCoResetMutations:
    def test_engine_counter_left_out_of_the_reset_trips(self, monkeypatch):
        """Mutant: the DMA engine's measured fields forget
        ``lines_written``, so the engine keeps the warm-up's line writes
        while the hierarchy's count restarts at zero — a co-reset group
        split by one declaration."""
        fields = tuple(field for field in DmaEngine.measured_fields
                       if field != "lines_written")
        monkeypatch.setattr(DmaEngine, "measured_fields", fields)
        with pytest.raises(InvariantViolation,
                           match=r"gem5: dma: hierarchy saw \d+ DMA line "
                                 r"writes"):
            _run(**LIGHT_LOAD)


class TestEveryComponentIsChecked:
    """Components that joined a topology after construction, and runs
    outside the single-node harness, are checked like the rest: the
    rig's one rule walks every component of its topology."""

    def test_pipeline_worker_core_is_checked(self):
        node = DpdkNode(gem5_default(), seed=21)
        node.install_pipeline_app()
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(packet_size=256,
                                                rate_gbps=2.0, count=60))
        node.run_us(4000.0)
        node.sim.invariants.check(final=True)
        worker = node.worker_core
        worker.l1_hits = worker.accesses + 1
        with pytest.raises(InvariantViolation, match="worker_core: L1 hits"):
            node.sim.invariants.check(final=True)

    def test_lost_memcached_response_trips_end_to_end(self, monkeypatch):
        """Mutant: the kernel driver reports one response sent but never
        queues it, so the client's port sees one frame fewer than the
        server answered."""
        orig = InterruptNicDriver.transmit
        lost = {"done": False}

        def mutant(self, skb_addr, packet):
            if not lost["done"]:
                lost["done"] = True
                return True
            return orig(self, skb_addr, packet)

        monkeypatch.setattr(InterruptNicDriver, "transmit", mutant)
        with pytest.raises(InvariantViolation,
                           match="end-to-end-conservation"):
            run_memcached(gem5_default(), kernel=True, rate_rps=100_000.0,
                          n_requests=300)

    def test_fig20_run_checks_the_client_side(self, monkeypatch):
        """Mutant: the dual-mode DPDK client's core counts more L1 hits
        than accesses, once.  The dual-mode run checks its topology,
        ``client.*`` included."""
        orig = dual_mode._DpdkClientApp._send
        corrupted = {"done": False}

        def mutant(self):
            orig(self)
            if not corrupted["done"]:
                corrupted["done"] = True
                self.core.l1_hits += self.core.accesses + 10**6

        monkeypatch.setattr(dual_mode._DpdkClientApp, "_send", mutant)
        with pytest.raises(InvariantViolation, match="client.core: L1 hits"):
            dual_mode.run_dual_mode_comparison(gem5_default(),
                                               n_requests=100)


class TestOneCountPerCrossing:
    """The rules read the count the port, FIFO or ring a frame crosses
    keeps; a component that loses or double-counts one frame breaks the
    rule that closes over that count."""

    def test_dpdk_app_losing_an_outgoing_frame_trips(self, monkeypatch):
        """Mutant: one outgoing frame is freed at burst completion but
        counted neither forwarded nor absorbed, so the RX ring released
        one packet more than the app accounts for."""
        orig = DpdkApp._finish_burst
        lost = {"done": False}

        def mutant(self, outgoing):
            if outgoing and not lost["done"]:
                lost["done"] = True
                self._holding -= 1
                self.pmd.free(outgoing.pop())
            orig(self, outgoing)

        monkeypatch.setattr(DpdkApp, "_finish_burst", mutant)
        with pytest.raises(InvariantViolation,
                           match="app: packet-conservation: harvested"):
            _run(**LIGHT_LOAD)

    def test_kernel_server_counting_a_response_twice_trips(self,
                                                           monkeypatch):
        """Mutant: the kernel memcached server counts one response
        twice, so it claims more responses than the RX ring released
        requests."""
        orig = MemcachedKernel.handle_packet
        doubled = {"done": False}

        def mutant(self, desc, batch_size):
            ns = orig(self, desc, batch_size)
            if not doubled["done"]:
                doubled["done"] = True
                self.total_responses += 1
            return ns

        monkeypatch.setattr(MemcachedKernel, "handle_packet", mutant)
        with pytest.raises(InvariantViolation,
                           match="app: packet-conservation: responses"):
            run_memcached(gem5_default(), kernel=True, rate_rps=100_000.0,
                          n_requests=300)

    def test_fabric_host_discarding_a_frame_trips(self, monkeypatch):
        """Mutant: a fabric host discards one received frame without
        counting it processed, dropped or queued, so its port received
        one frame more than the host accounts for."""
        orig = FabricHost._on_receive
        lost = {"done": False}

        def mutant(self, packet):
            if not lost["done"]:
                lost["done"] = True
                return
            orig(self, packet)

        monkeypatch.setattr(FabricHost, "_on_receive", mutant)
        with pytest.raises(InvariantViolation,
                           match=r"\.h\d+: conservation: received"):
            run_fabric(gem5_default(), "leaf-spine", "dpdk", n_flows=20)

    def test_loadgen_counting_a_response_twice_trips(self, monkeypatch):
        """Mutant: the generator counts one response twice.  Before any
        measurement reset its window count is its lifetime count, so it
        exceeds what its port received."""
        orig = EtherLoadGen._on_rx
        doubled = {"done": False}

        def mutant(self, packet):
            orig(self, packet)
            if not doubled["done"]:
                doubled["done"] = True
                self.rx_packets += 1

        monkeypatch.setattr(EtherLoadGen, "_on_rx", mutant)
        node = DpdkNode(gem5_default(), PmdApp, seed=3)
        loadgen = node.attach_loadgen()
        node.start()
        loadgen.start_synthetic(SyntheticConfig(packet_size=256,
                                                rate_gbps=2.0, count=40))
        node.run_us(3000.0)
        with pytest.raises(InvariantViolation,
                           match="loadgen: port-accounting"):
            node.sim.invariants.check(final=True)

    def test_loadgen_double_counting_after_warm_up_trips(self, monkeypatch):
        """Mutant: after the warm-up reset the generator counts 5
        measured responses twice.  The warm-up's responses give no
        cover: the window's counts are checked against the frames the
        port received since the reset, not over its lifetime."""
        orig = EtherLoadGen._on_rx
        left = {"doubles": 5}

        def mutant(self, packet):
            orig(self, packet)
            if (self._epoch and packet.meta.get("epoch") == self._epoch
                    and left["doubles"]):
                left["doubles"] -= 1
                self.rx_packets += 1

        monkeypatch.setattr(EtherLoadGen, "_on_rx", mutant)
        with pytest.raises(InvariantViolation,
                           match="loadgen: port-accounting"):
            run_fixed_load(gem5_default(), "testpmd", 64, 40.0,
                           n_packets=500)
        assert left["doubles"] == 0


class TestPositiveControls:
    """The mutations above only mean something if unmutated runs pass."""

    def test_clean_light_load_passes(self):
        result = _run(**LIGHT_LOAD)
        assert result.sent > 0

    def test_clean_overload_passes(self):
        # Drops everywhere, FIFOs churning — and every conservation law
        # still holds.
        result = _run(**OVERLOAD)
        assert result.drop_rate > 0.1

    def test_clean_strict_mode_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "strict")
        result = _run(**LIGHT_LOAD)
        assert result.sent > 0

    def test_mutation_detected_immediately_under_strict(self, monkeypatch):
        """Strict mode catches the FIFO corruption at the corrupting
        event, not at the end of the run."""
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "strict")
        orig = PacketByteFifo.try_enqueue
        corrupted = {"done": False}

        def mutant(self, packet):
            ok = orig(self, packet)
            if ok and not corrupted["done"]:
                corrupted["done"] = True
                self.enqueued += 1
            return ok

        monkeypatch.setattr(PacketByteFifo, "try_enqueue", mutant)
        with pytest.raises(InvariantViolation) as info:
            _run(**LIGHT_LOAD)
        assert info.value.phase == "strict"

    def test_off_mode_disables_enforcement(self, monkeypatch):
        """With checking off, even a corrupted run completes — the
        escape hatch for bisecting the checker itself."""
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "off")
        orig = PacketByteFifo.try_enqueue
        corrupted = {"done": False}

        def mutant(self, packet):
            ok = orig(self, packet)
            if ok and not corrupted["done"]:
                corrupted["done"] = True
                self.enqueued += 1
            return ok

        monkeypatch.setattr(PacketByteFifo, "try_enqueue", mutant)
        result = _run(**LIGHT_LOAD)
        assert result.sent > 0
