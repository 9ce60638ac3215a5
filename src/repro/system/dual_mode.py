"""Dual-mode (two simulated nodes) vs EtherLoadGen comparison.

The paper's Fig 20 measures how much *simulation time* is saved by
replacing a fully-simulated Drive Node running a software load generator
(Fig 1a) with the EtherLoadGen hardware model (Fig 1b).  Here both
topologies are built and run to completion, and the host CPU time each
one costs is compared (process time: on a shared host, time stolen by
other processes would otherwise land on whichever run it hit):

- **dual mode** — a second simulated host (core + caches + NIC + driver)
  runs a memcached client application; every request pays simulated
  client-side work and the host pays for simulating it;
- **loadgen mode** — the MemcachedClient personality of EtherLoadGen
  sources the same request stream with zero client-side simulation.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from repro.apps.base import DpdkApp, KernelNetApp
from repro.apps.memcached_dpdk import MemcachedDpdk
from repro.apps.memcached_kernel import MemcachedKernel
from repro.cpu.core import Work
from repro.cpu.kernels import lines_covering
from repro.kvstore.protocol import GetRequest, SetRequest, encode_request
from repro.kvstore.store import KvStore
from repro.kvstore.zipf import ZipfianGenerator
from repro.loadgen.distributions import FixedInterArrival
from repro.loadgen.memcached_client import MemcachedClientConfig
from repro.net.headers import build_udp_frame
from repro.net.packet import MacAddress
from repro.sim.ticks import us_to_ticks
from repro.system.config import SystemConfig
from repro.system.node import DpdkNode, KernelNode

CLIENT_MAC = MacAddress.parse("02:00:00:00:00:01")
SERVER_MAC = MacAddress.parse("02:00:00:00:00:02")


class _ClientWorkload:
    """Shared request generation for the simulated clients."""

    def __init__(self, rng, n_keys: int = 512) -> None:
        self._size_gen = ZipfianGenerator(10, 100, 0.5, rng)
        self._rng = rng
        self.keys = [f"key-{i:08d}".encode()[:self._size_gen.sample()]
                     .ljust(10, b"x") for i in range(n_keys)]
        self._next_id = 1

    def preload(self, store: KvStore) -> None:
        """Populate the server store with this workload's keys."""
        for key in self.keys:
            store.set(key, bytes(self._size_gen.sample()))

    def next_request(self):
        """Generate the next GET/SET request."""
        request_id = self._next_id
        self._next_id += 1
        key = self._rng.choice(self.keys)
        if self._rng.bernoulli(0.8):
            return GetRequest(request_id=request_id, key=key)
        return SetRequest(request_id=request_id, key=key,
                          value=bytes(self._size_gen.sample()))


class _DpdkClientApp(DpdkApp):
    """A simulated Drive Node client over DPDK (the Fig 1a load-gen app,
    DPDK flavour)."""

    def __init__(self, sim, name, pmd, core, costs, address_space,
                 workload: _ClientWorkload, n_requests: int,
                 rate_rps: float) -> None:
        super().__init__(sim, name, pmd, core, costs, address_space)
        self.workload = workload
        self.n_requests = n_requests
        self._gap = FixedInterArrival(rate_rps)
        self._send_event = self.make_event(self._send, "send")
        self.requests_sent = 0
        self.responses_received = 0

    def start(self, when: int = 0) -> None:
        """Begin operation at tick ``when`` (default: now)."""
        super().start(when)
        self.schedule(self._send_event, max(when, self.now))

    def _send(self) -> None:
        if self.requests_sent >= self.n_requests:
            return
        request = self.workload.next_request()
        payload = encode_request(request)
        mbuf = self.pmd.mempool.get()
        packet = build_udp_frame(
            src_mac=CLIENT_MAC, dst_mac=SERVER_MAC,
            src_ip=0x0A000001, dst_ip=0x0A000002,
            src_port=40000, dst_port=11211, payload=payload)
        packet.request_id = request.request_id
        packet.ts_tx = self.now
        packet.meta["mbuf"] = mbuf
        # Client-side request construction costs simulated core time.
        self.core.execute(Work(
            compute_cycles=(self.costs.pmd_per_packet_cycles
                            + self.costs.app_base_cycles * 4),
            writes=lines_covering(mbuf.data_addr, len(payload)),
        ))
        self.pmd.nic.tx_enqueue(mbuf.data_addr, packet)
        self.requests_sent += 1
        if self.requests_sent < self.n_requests:
            self.schedule_after(self._send_event, self._gap.next_gap_ticks())

    def frame_work(self, frame):
        # Response parsing on the client core.
        """Per-packet application work for one received frame."""
        return Work(compute_cycles=self.costs.app_base_cycles * 4,
                    reads=[frame.mbuf.data_addr])

    def transform(self, frame):
        """Outgoing packet for this frame (None drops it)."""
        self.responses_received += 1
        return None   # consume the response


class _KernelClientApp(KernelNetApp):
    """A simulated Drive Node client over the kernel stack."""

    def __init__(self, sim, name, driver, stack, core, costs,
                 workload: _ClientWorkload, n_requests: int,
                 rate_rps: float) -> None:
        super().__init__(sim, name, driver, stack, core, costs)
        self.workload = workload
        self.n_requests = n_requests
        self._gap = FixedInterArrival(rate_rps)
        self._send_event = self.make_event(self._send, "send")
        self.requests_sent = 0
        self.responses_received = 0

    def start(self, when: int = 0) -> None:
        """Begin operation at tick ``when`` (default: now)."""
        self.schedule(self._send_event, max(when, self.now))

    def _send(self) -> None:
        if self.requests_sent >= self.n_requests:
            return
        request = self.workload.next_request()
        payload = encode_request(request)
        packet = build_udp_frame(
            src_mac=CLIENT_MAC, dst_mac=SERVER_MAC,
            src_ip=0x0A000001, dst_ip=0x0A000002,
            src_port=40000, dst_port=11211, payload=payload)
        packet.request_id = request.request_id
        packet.ts_tx = self.now
        tx = self.stack.tx_work(len(payload))
        self.core.execute(tx.app)
        self.core.execute(tx.kernel)
        skb_addr = self.stack.alloc_skb(packet.wire_len)
        self.driver.transmit(skb_addr, packet)
        self.requests_sent += 1
        if self.requests_sent < self.n_requests:
            self.schedule_after(self._send_event, self._gap.next_gap_ticks())

    def handle_packet(self, desc, batch_size: int) -> float:
        """Application-level processing; returns extra ns."""
        self.responses_received += 1
        return 0.0


@dataclass
class DualModeResult:
    """Host CPU-time comparison of the two topologies."""

    dual_cpu_s: float
    loadgen_cpu_s: float
    requests: int
    dual_responses: int
    loadgen_responses: int

    @property
    def speedup_fraction(self) -> float:
        """Simulation-time saving of EtherLoadGen vs dual mode (Fig 20's
        y-axis: (t_dual - t_loadgen) / t_dual)."""
        if self.dual_cpu_s <= 0:
            return 0.0
        return max(0.0, 1.0 - self.loadgen_cpu_s / self.dual_cpu_s)


def _run_to_completion(sim, horizon_us: float) -> None:
    sim.run(until=sim.now + us_to_ticks(horizon_us))


def run_dual_mode_comparison(config: SystemConfig, kernel: bool = False,
                             n_requests: int = 2000,
                             rate_rps: float = 150_000.0,
                             seed: int = 7) -> DualModeResult:
    """Run both topologies and compare the host CPU time each costs."""
    # Generous drain horizon: the cold-started kernel server works through
    # its early-backlog before caches warm.
    horizon_us = n_requests / rate_rps * 1e6 + 5000.0

    # Each timed run starts from an empty garbage collector, so a full
    # collection owed to earlier work never lands inside either run.
    # ---- dual mode: two simulated nodes sharing one event queue -----------
    gc.collect()
    start = time.process_time()
    if kernel:
        server = KernelNode(config, seed=seed)
        store = KvStore(server.address_space)
        server.install_app(MemcachedKernel, store=store)
    else:
        server = DpdkNode(config, seed=seed)
        store = KvStore(server.address_space)
        server.install_app(MemcachedDpdk, store=store)
    client = _build_client_in(server, config, kernel, n_requests, rate_rps)
    client.workload.preload(store)
    server.start()
    client.start()
    _run_to_completion(server.sim, horizon_us)
    dual_cpu = time.process_time() - start
    dual_responses = client.responses_received
    del server, store, client       # the loadgen run must not carry them

    # ---- loadgen mode: EtherLoadGen memcached personality ------------------
    gc.collect()
    start = time.process_time()
    if kernel:
        node = KernelNode(config, seed=seed)
        store2 = KvStore(node.address_space)
        node.install_app(MemcachedKernel, store=store2)
    else:
        node = DpdkNode(config, seed=seed)
        store2 = KvStore(node.address_space)
        node.install_app(MemcachedDpdk, store=store2)
    client_cfg = MemcachedClientConfig(
        n_warm_keys=512, n_requests=n_requests, rate_rps=rate_rps)
    mc = node.attach_memcached_client(client_cfg)
    mc.preload(store2)
    node.start()
    mc.start()
    _run_to_completion(node.sim, horizon_us)
    loadgen_cpu = time.process_time() - start

    return DualModeResult(
        dual_cpu_s=dual_cpu,
        loadgen_cpu_s=loadgen_cpu,
        requests=n_requests,
        dual_responses=dual_responses,
        loadgen_responses=mc.responses_received,
    )


def _build_client_in(server, config: SystemConfig, kernel: bool,
                     n_requests: int, rate_rps: float):
    """Construct the Drive Node inside the server's Simulation and wire
    the two NICs with the server's link.

    The client reuses the same declarative platform builder as a full
    node — prefixed names, its own address space — so dual mode is one
    :class:`~repro.system.topology.Topology` covering both hosts.
    """
    from repro.dpdk.hugepages import HugepageAllocator
    from repro.dpdk.mempool import Mempool
    from repro.dpdk.pmd import E1000Pmd
    from repro.kernelstack.driver import InterruptNicDriver
    from repro.kernelstack.stack import KernelStackModel
    from repro.mem.address import AddressSpace
    from repro.pci.uio import UioPciGeneric
    from repro.system.topology import build_platform

    sim = server.sim
    topo = server.topology
    platform = build_platform(
        topo, sim, config, prefix="client.",
        address_space=AddressSpace(base=0x8000_0000))
    aspace = platform.address_space
    core = platform.core
    nic = platform.nic
    server.link.connect(nic.port, server.nic.port)
    workload = _ClientWorkload(sim.rng.fork("client.workload"))
    if kernel:
        stack = KernelStackModel(aspace, config.costs,
                                 name="client.kernel.stack")
        topo.add("client.kernel.stack", stack)
        driver = InterruptNicDriver(nic, stack)
        topo.add("client.driver", driver)
        client = _KernelClientApp(sim, "client.app", driver, stack, core,
                                  config.costs, workload=workload,
                                  n_requests=n_requests, rate_rps=rate_rps)
    else:
        uio = UioPciGeneric()
        uio.bind(nic)
        hugepages = HugepageAllocator(aspace, 512)
        mempool = Mempool("client.mbuf_pool", hugepages,
                          n_mbufs=config.mempool_mbufs,
                          mbuf_size=config.mbuf_size)
        topo.add("client.mbuf_pool", mempool)
        pmd = E1000Pmd(nic, mempool)
        topo.add("client.pmd", pmd)
        client = _DpdkClientApp(sim, "client.app", pmd, core, config.costs,
                                aspace, workload=workload,
                                n_requests=n_requests, rate_rps=rate_rps)
    topo.add("client.app", client)
    client.workload = workload
    return client
