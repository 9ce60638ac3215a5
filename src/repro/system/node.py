"""Test-node assembly.

Builds the full simulated host of Fig 1b: EtherLoadGen — link — NIC —
DMA/I-O bus — memory hierarchy — core — application, in both DPDK and
kernel-stack flavours.  The build path exercises the same sequence as
Listing 2 of the paper: bind ``uio_pci_generic``, reserve hugepages, and
launch the DPDK application through the EAL.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Type

from repro.cpu import make_core
from repro.dpdk.eal import Eal
from repro.dpdk.hugepages import HugepageAllocator
from repro.dpdk.mempool import Mempool
from repro.dpdk.pmd import E1000Pmd
from repro.kernelstack.driver import InterruptNicDriver
from repro.kernelstack.stack import KernelStackModel
from repro.loadgen.ether_load_gen import (
    DEFAULT_DST_MAC,
    DEFAULT_SRC_MAC,
    EtherLoadGen,
    SyntheticConfig,
)
from repro.loadgen.memcached_client import MemcachedClient, MemcachedClientConfig
from repro.nic.i8254x import E1000_DEVICE_ID, INTEL_VENDOR_ID
from repro.nic.phy import EtherLink
from repro.pci.bus import PciBus
from repro.pci.uio import UioBindError, UioPciGeneric
from repro.sim.checkpoint import DRAIN_CHUNK_US, Rig
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from repro.system.config import SystemConfig
from repro.system.topology import Topology, build_platform


class NodeBuildError(RuntimeError):
    """The node could not be brought up (e.g. DPDK on baseline gem5)."""


@dataclass(frozen=True)
class WarmupPlan:
    """One description of a warm-up phase, shared by every entry point.

    The plan is deliberately *load-independent*: the warm rate is a
    canonical comfortable rate, not the measured offered load, so sweep
    points that differ only in offered load produce byte-identical
    post-warm-up machine state — the property that lets one warm-up
    checkpoint be shared across a whole load sweep.
    """

    #: Minimum warm simulated time (the link round trip is always added).
    min_warm_us: float = 100.0
    #: Warm until the app has processed this many packets (cache cycling).
    warm_packet_target: int = 500
    #: Synthetic (EtherLoadGen) warm traffic; 0 Gbps disables it.
    packet_size: int = 64
    warm_rate_gbps: float = 0.0
    expect_responses: bool = True
    #: Memcached warm traffic; 0 requests disables it.
    warm_requests: int = 0
    warm_rate_rps: float = 0.0


class _BaseNode(Rig):
    """Common plumbing: sim, memory, core, NIC, link.

    The components themselves come from the shared
    :func:`~repro.system.topology.build_platform` builder; this class
    keeps the flat attribute API (``node.core``, ``node.nic``, ...) the
    harness and tests use, while ``node.topology`` holds the typed
    wiring graph for validation and rendering.  Checkpoint, restore, the
    measurement reset, the invariant rule (every topology component's
    rules plus :meth:`law_failures`) and the wiring helpers come from
    :class:`~repro.sim.checkpoint.Rig`.
    """

    def __init__(self, config: SystemConfig, seed: int = 0) -> None:
        self.config = config
        self.label = config.label
        self.sim = Simulation(seed=seed)
        self.topology = Topology(config.label)
        platform = build_platform(self.topology, self.sim, config,
                                  nic_config=self._nic_config())
        self.address_space = platform.address_space
        self.hierarchy = platform.hierarchy
        self.clock_domain = platform.clock
        self.core = platform.core
        self.iobus = platform.iobus
        self.dma = platform.dma
        self.nic = platform.nic
        self.pci_bus = PciBus()
        self.pci_bus.attach("00:02.0", self.nic)
        self.link = EtherLink(self.sim, "link0",
                              bandwidth_bits_per_sec=config.link_bandwidth_bps,
                              delay_ticks=us_to_ticks(config.link_delay_us))
        self.topology.add("link0", self.link)
        self.loadgen: Optional[EtherLoadGen] = None
        self.memcached_client: Optional[MemcachedClient] = None
        self.app = None
        self.sim.invariants.register(self.label, self.invariant_failures)

    def _nic_config(self):
        return self.config.nic

    @property
    def identity_app(self) -> Optional[str]:
        """The application class a checkpoint of this node records."""
        return type(self.app).__name__ if self.app is not None else None

    # -- invariants -------------------------------------------------------

    def law_failures(self) -> List[str]:
        """The paper's headline conservation law (Figs 5-9): frames the
        traffic source injected == returned + NIC drops + TX FIFO drops
        + app-absorbed.  It reads the source's port, so an EtherLoadGen
        and a memcached client are checked alike, and it is exact only
        once every queue and wire between them and the app has drained
        (the rig checks it only then)."""
        source = self.loadgen or self.memcached_client
        if source is None:
            return []
        port, nic = source.port, self.nic
        absorbed = getattr(self.app, "total_absorbed", 0)
        tx_fifo_drops = nic.tx_fifo.rejected
        accounted = (port.frames_received + nic.total_rx_drops
                     + tx_fifo_drops + absorbed)
        if port.frames_sent != accounted:
            return [
                f"end-to-end-conservation: injected {port.frames_sent} != "
                f"returned {port.frames_received} + NIC drops "
                f"{nic.total_rx_drops} + TX FIFO drops "
                f"{tx_fifo_drops} + app-absorbed {absorbed}"]
        return []

    # -- client attachment -------------------------------------------------

    def attach_loadgen(self) -> EtherLoadGen:
        """Connect an EtherLoadGen to the NIC port (Fig 1b)."""
        if self.loadgen is not None or self.memcached_client is not None:
            raise NodeBuildError("node already has a traffic source")
        self.loadgen = EtherLoadGen(self.sim, "loadgen",
                                    dst_mac=DEFAULT_DST_MAC,
                                    src_mac=DEFAULT_SRC_MAC)
        self.topology.add("loadgen", self.loadgen)
        self.link.connect(self.loadgen.port, self.nic.port)
        return self.loadgen

    def attach_memcached_client(
            self, client_config: MemcachedClientConfig) -> MemcachedClient:
        """Connect the memcached client personality instead."""
        if self.loadgen is not None or self.memcached_client is not None:
            raise NodeBuildError("node already has a traffic source")
        self.memcached_client = MemcachedClient(
            self.sim, "memcached_client", client_config,
            dst_mac=DEFAULT_DST_MAC, src_mac=DEFAULT_SRC_MAC)
        self.topology.add("memcached_client", self.memcached_client)
        self.link.connect(self.memcached_client.port, self.nic.port)
        return self.memcached_client

    # -- simulation control --------------------------------------------------

    def run_us(self, microseconds: float) -> int:
        """Advance the simulation by the given simulated time."""
        return self.sim.run(until=self.sim.now + us_to_ticks(microseconds))

    def warmup_and_reset(self, plan: Optional[WarmupPlan] = None) -> None:
        """Run one warm-up phase, drain to quiescence, reset statistics.

        This is the single warm-up entry point (the gem5 methodology of
        §VI.A): warm traffic is offered at the plan's canonical rate,
        stopped, and the node drained until it is checkpoint-ready before
        the statistics reset.  The post-reset state is therefore exactly
        what :meth:`checkpoint` captures, so a restored node and a
        straight-through node run identical measured phases.
        """
        if plan is None:
            plan = WarmupPlan(min_warm_us=self.config.warmup_us)
        warming = False
        if self.loadgen is not None and plan.warm_rate_gbps > 0:
            self.loadgen.start_synthetic(SyntheticConfig(
                packet_size=plan.packet_size,
                rate_gbps=plan.warm_rate_gbps,
                count=None,
                expect_responses=plan.expect_responses,
            ))
            warming = True
        elif self.memcached_client is not None and plan.warm_requests > 0:
            self.memcached_client.run_warmup(plan.warm_requests,
                                             plan.warm_rate_rps)
            warming = True
        self.run_us(max(plan.min_warm_us,
                        self.config.link_delay_us + 100.0))
        if warming and self.app is not None:
            # Packet-count criterion: slow kernel-stack apps need far more
            # simulated time than fast DPDK apps to cycle their caches.
            for _ in range(60):
                if self.app.packets_processed >= plan.warm_packet_target:
                    break
                self.run_us(DRAIN_CHUNK_US)
        for source in (self.loadgen, self.memcached_client):
            if source is not None and source.active:
                source.stop()
        # The last round trip, then drain.
        self.run_us(2 * self.config.link_delay_us + 200.0)
        self.drain()
        self.reset_measurement()


class DpdkNode(_BaseNode):
    """A Test Node running a DPDK application (Listing 2 flow)."""

    def __init__(self, config: SystemConfig, app_class: Optional[Type] = None,
                 app_kwargs: Optional[dict] = None, seed: int = 0) -> None:
        super().__init__(config, seed=seed)
        # modprobe uio_pci_generic && dpdk-devbind.py -b uio_pci_generic
        self.uio = UioPciGeneric()
        try:
            self.uio.bind(self.nic)
        except UioBindError as exc:
            raise NodeBuildError(
                f"cannot run DPDK on {config.label}: {exc} — flip "
                f"SystemConfig.pci_quirks from PciQuirks.baseline_gem5() "
                f"to PciQuirks() (the paper's §III.A.1-2 PCI fixes)"
            ) from exc
        # echo 2048 > .../nr_hugepages
        self.hugepages = HugepageAllocator(self.address_space,
                                           config.nr_hugepages)
        # The pool must always cover both rings plus in-flight bursts;
        # ring-size overrides (e.g. Fig 13's 4096-entry ring) scale it.
        n_mbufs = max(config.mempool_mbufs,
                      config.nic.rx_ring_size + config.nic.tx_ring_size
                      + 512)
        self.mempool = Mempool("mbuf_pool", self.hugepages,
                               n_mbufs=n_mbufs,
                               mbuf_size=config.mbuf_size)
        self.topology.add("mbuf_pool", self.mempool)
        # dpdk-<app> -l 0-3 -n 4 ...  (EAL probe + PMD launch)
        self.eal = Eal(self.pci_bus, config.eal)
        self.eal.register_pmd(INTEL_VENDOR_ID, E1000_DEVICE_ID, E1000Pmd)
        try:
            ports = self.eal.probe(self.mempool)
        except Exception as exc:
            raise NodeBuildError(
                f"EAL probe failed on {config.label}: {exc} — check "
                f"SystemConfig.nic.quirks and SystemConfig.eal") from exc
        self.pmd: E1000Pmd = ports[0]
        self.topology.add("pmd", self.pmd)
        if app_class is not None:
            self.install_app(app_class, **(app_kwargs or {}))

    def law_failures(self) -> List[str]:
        """The end-to-end law, plus leak detection (a held mbuf is
        legitimate while packets are in flight; at quiescence it is a
        leak — DPDK's classic failure mode, which surfaces as
        ``MempoolEmptyError`` much later)."""
        fails = super().law_failures()
        fails.extend(f"mbuf_pool: {message}"
                     for message in self.mempool.leak_failures())
        return fails

    def install_app(self, app_class: Type, **kwargs):
        """Instantiate the DPDK application on this node's core."""
        if self.app is not None:
            raise NodeBuildError("node already runs an application")
        self.app = app_class(self.sim, "app", self.pmd, self.core,
                             self.config.costs, self.address_space, **kwargs)
        self.topology.add("app", self.app)
        return self.app

    def install_pipeline_app(self, ring_size: int = 1024,
                             touch_payload: bool = False):
        """Instantiate a pipeline-mode application (paper §II.A): the
        existing core runs the RX stage and a second core (same
        configuration, shared memory hierarchy and clock domain) runs
        the worker stage."""
        from repro.apps.pipeline import PipelineForwarder
        if self.app is not None:
            raise NodeBuildError("node already runs an application")
        self.worker_core = make_core(self.config.core, self.hierarchy,
                                     clock=self.clock_domain,
                                     name="worker_core")
        self.topology.add("worker_core", self.worker_core)
        self.app = PipelineForwarder(
            self.sim, "app", self.pmd, self.core, self.worker_core,
            self.config.costs, self.address_space,
            ring_size=ring_size, touch_payload=touch_payload)
        self.topology.add("app", self.app)
        return self.app

    def start(self, when: int = 0) -> None:
        """Begin operation at tick ``when`` (default: now)."""
        if self.app is None:
            raise NodeBuildError("no application installed")
        self.app.start(when)


class KernelNode(_BaseNode):
    """A Test Node running a kernel-stack application."""

    def __init__(self, config: SystemConfig, app_class: Optional[Type] = None,
                 app_kwargs: Optional[dict] = None, seed: int = 0) -> None:
        super().__init__(config, seed=seed)
        self.stack = KernelStackModel(self.address_space, config.costs)
        self.topology.add("kernel.stack", self.stack)
        self.driver = InterruptNicDriver(self.nic, self.stack)
        self.topology.add("driver", self.driver)
        if app_class is not None:
            self.install_app(app_class, **(app_kwargs or {}))

    def install_app(self, app_class: Type, **kwargs):
        """Instantiate the kernel-stack application on this node's core."""
        if self.app is not None:
            raise NodeBuildError("node already runs an application")
        self.app = app_class(self.sim, "app", self.driver, self.stack,
                             self.core, self.config.costs, **kwargs)
        self.topology.add("app", self.app)
        return self.app

    def _nic_config(self):
        # Kernel drivers use smaller rings and *do* program the writeback
        # threshold (so even the baseline NIC model behaves, §III.A.3).
        return replace(self.config.nic,
                       rx_ring_size=self.config.kernel_rx_ring,
                       tx_ring_size=self.config.kernel_rx_ring)

    def start(self, when: int = 0) -> None:
        """Kernel apps are interrupt-driven; nothing to schedule."""
