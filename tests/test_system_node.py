"""Unit tests for node assembly and the baseline-gem5 failure modes."""

import pytest

from repro.apps.iperf import IperfServer
from repro.apps.testpmd import TestPmd as PmdApp  # noqa: N811
from repro.harness.runner import fixed_load_warm_start
from repro.system.node import DpdkNode, KernelNode, NodeBuildError
from repro.system.presets import gem5_baseline, gem5_default


class TestDpdkNode:
    def test_listing2_bringup_sequence(self):
        """modprobe uio_pci_generic; devbind; hugepages; EAL probe."""
        node = DpdkNode(gem5_default())
        assert node.nic.driver_name == "uio_pci_generic"
        assert node.hugepages.nr_hugepages == 2048
        assert node.pmd is not None
        assert node.pci_bus.device("00:02.0") is node.nic

    def test_dpdk_cannot_run_on_baseline_gem5(self):
        """The paper's motivating failure: mainline gem5 cannot bring up
        a DPDK application at all."""
        with pytest.raises(NodeBuildError):
            DpdkNode(gem5_baseline())

    def test_app_installation_once(self):
        node = DpdkNode(gem5_default())
        node.install_app(PmdApp)
        with pytest.raises(NodeBuildError):
            node.install_app(PmdApp)

    def test_start_requires_app(self):
        node = DpdkNode(gem5_default())
        with pytest.raises(NodeBuildError):
            node.start()

    def test_single_traffic_source(self):
        node = DpdkNode(gem5_default())
        node.attach_loadgen()
        with pytest.raises(NodeBuildError):
            node.attach_loadgen()

    def test_mempool_covers_rings(self):
        node = DpdkNode(gem5_default())
        config = node.config
        assert node.mempool.n_mbufs >= (config.nic.rx_ring_size
                                        + config.nic.tx_ring_size)

    def test_warmup_and_reset(self):
        node = DpdkNode(gem5_default())
        node.install_app(PmdApp)
        loadgen = node.attach_loadgen()
        node.start()
        from repro.loadgen.ether_load_gen import SyntheticConfig
        loadgen.start_synthetic(SyntheticConfig(packet_size=64,
                                                rate_gbps=1.0, count=None))
        node.warmup_and_reset()
        assert loadgen.tx_packets == 0
        assert node.core.busy_ns == 0
        assert node.sim.now > 0


class TestKernelNode:
    def test_bringup(self):
        node = KernelNode(gem5_default())
        node.install_app(IperfServer)
        assert node.nic.driver_name == "e1000"
        assert node.driver is not None

    def test_kernel_ring_override(self):
        node = KernelNode(gem5_default())
        assert node.nic.rx_ring.size == gem5_default().kernel_rx_ring

    def test_kernel_works_even_on_baseline_gem5(self):
        """Kernel networking predates the paper's fixes: it must come up
        on the unmodified model too."""
        node = KernelNode(gem5_baseline())
        node.install_app(IperfServer)
        assert node.app is not None


def test_warm_up_resets_both_io_bus_directions():
    """The warm-up's DMA traffic crosses both directions of the I/O bus;
    neither direction may carry it into the measured window."""
    spec = fixed_load_warm_start(gem5_default(), "testpmd", 256)
    node = spec.build()
    spec.warm(node)
    assert node.dma.iobus_tx is not node.iobus
    for bus in (node.iobus, node.dma.iobus_tx):
        assert (bus.bytes_moved, bus.transfers) == (0, 0), bus.name
