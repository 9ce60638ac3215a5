"""Run primitives: build a node, load it, collect results.

Methodology mirrors the paper's §VI.A: the node is warmed up under load,
statistics are reset, a measured window runs, then the wire drains before
results are read.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.apps.iperf import IperfServer
from repro.apps.memcached_dpdk import MemcachedDpdk
from repro.apps.memcached_kernel import MemcachedKernel
from repro.apps.rxptx import RxPTx
from repro.apps.testpmd import TestPmd
from repro.apps.touchdrop import TouchDrop
from repro.apps.touchfwd import TouchFwd
from repro.harness.warmup_cache import (
    WarmStart,
    WarmupCache,
    warm_start,
    warmup_key,
)
from repro.kvstore.store import KvStore
from repro.loadgen.ether_load_gen import (
    SyntheticConfig,
    gbps_for_pps,
    pps_for_gbps,
)
from repro.loadgen.memcached_client import MemcachedClientConfig
from repro.sim.invariants import InvariantViolation
from repro.sim.trace import TraceOptions
from repro.system.config import SystemConfig
from repro.system.node import DpdkNode, KernelNode, WarmupPlan

# app name -> (node class, app class, echoes responses)
APP_REGISTRY: Dict[str, Tuple[type, type, bool]] = {
    "testpmd": (DpdkNode, TestPmd, True),
    "touchfwd": (DpdkNode, TouchFwd, True),
    "touchdrop": (DpdkNode, TouchDrop, False),
    "rxptx": (DpdkNode, RxPTx, True),
    "memcached_dpdk": (DpdkNode, MemcachedDpdk, True),
    "iperf": (KernelNode, IperfServer, True),
    "memcached_kernel": (KernelNode, MemcachedKernel, True),
}

#: The apps that answer only memcached requests: they absorb synthetic
#: frames, so they run under :func:`run_memcached`, never at a fixed
#: frame rate.
MEMCACHED_APPS = ("memcached_dpdk", "memcached_kernel")


def _registered(app_name: str) -> Tuple[type, type, bool]:
    if app_name not in APP_REGISTRY:
        close = difflib.get_close_matches(app_name, APP_REGISTRY, n=1)
        suggestion = f" (did you mean {close[0]!r}?)" if close else ""
        raise ValueError(
            f"unknown app {app_name!r}{suggestion}; expected one of "
            f"{sorted(APP_REGISTRY)}")
    return APP_REGISTRY[app_name]


def build_node(config: SystemConfig, app_name: str,
               app_options: Optional[dict] = None, seed: int = 0):
    """Build a ready-to-run Test Node for a registered application.

    Memcached apps get a KvStore created in the node's address space
    automatically.
    """
    node_class, app_class, _echoes = _registered(app_name)
    node = node_class(config, seed=seed)
    options = dict(app_options or {})
    if app_name in MEMCACHED_APPS and "store" not in options:
        options["store"] = KvStore(node.address_space)
    node.install_app(app_class, **options)
    # Catch wiring regressions at build time: every non-external port of
    # the assembled node must be bound before any load is offered.
    node.validate_wiring()
    return node


def _finalize_run(node) -> str:
    """End-of-run bookkeeping shared by every runner entry point: assert
    the registered invariants (final mode), export the trace when
    ``REPRO_TRACE_PATH`` asks for one, and return the trace digest (empty
    string when tracing is off).

    The export path is last-writer-wins: point it at a single run, not a
    sweep.
    """
    node.sim.invariants.check(final=True)
    tracer = node.sim.tracer
    if not tracer.enabled:
        return ""
    trace_path = os.environ.get("REPRO_TRACE_PATH")
    if trace_path:
        tracer.write_jsonl(trace_path)
    return tracer.digest()


def _check_result_sanity(node, name: str, sent: int, delivered: int,
                         drop_breakdown: Dict[str, float],
                         latency_us: Dict[str, float]) -> None:
    """Harness-level cross-checks on the numbers a run reports.  These
    live outside the simulation (they constrain the *result*, not the
    machine state) but honour the same mode switch."""
    if node.sim.invariants.mode == "off":
        return
    fails = []
    if not 0 <= delivered <= sent:
        fails.append(f"delivered {delivered} outside [0, sent {sent}]")
    # The fractional breakdown sums to 1 when any drops occurred, and to
    # exactly 0 for a clean run.
    share = sum(drop_breakdown.values())
    if drop_breakdown and not (share == 0.0 or 0.999 < share < 1.001):
        fails.append(
            f"drop-cause breakdown sums to {share:.6f}, not 0 or 1: "
            f"{drop_breakdown}")
    count = latency_us.get("count", 0)
    if count > delivered:
        fails.append(
            f"latency samples ({count:g}) exceed delivered "
            f"packets ({delivered})")
    if count:
        low = latency_us.get("min", 0.0)
        high = latency_us.get("max", 0.0)
        mean = latency_us.get("mean", 0.0)
        # The running mean accumulates float rounding; tolerate it.
        slack = 1e-9 * max(1.0, abs(high))
        if not (0 <= low <= high
                and low - slack <= mean <= high + slack):
            fails.append(f"latency summary not ordered: {latency_us}")
    if fails:
        raise InvariantViolation(
            [f"harness.{name}: {msg}" for msg in fails],
            tick=node.sim.now, phase="harness")


@dataclass
class FixedLoadResult:
    """Outcome of one fixed-rate run."""

    label: str
    app: str
    packet_size: int
    offered_gbps: float
    delivered_gbps: float
    drop_rate: float
    sent: int
    delivered: int
    drop_breakdown: Dict[str, float] = field(default_factory=dict)
    latency_us: Dict[str, float] = field(default_factory=dict)
    llc_miss_rate: float = 0.0
    dma_leaked_lines: int = 0
    # The node's measured packet service rate during the window (the
    # saturation throughput; equals the MSB when the node is overloaded).
    service_gbps: float = 0.0
    # SHA-256 of the run's exported trace; empty when tracing was off.
    # Equal (config, seed) runs must produce equal digests.
    trace_digest: str = ""

    @property
    def mean_latency_us(self) -> float:
        """Mean round-trip latency in microseconds."""
        return self.latency_us.get("mean", 0.0)


def _effective_rate(config: SystemConfig, gbps: float,
                    packet_size: int) -> float:
    """Clamp the offered rate by the software load-generator ceiling when
    the platform uses one (the altra/Pktgen client bottleneck, Fig 6)."""
    if config.software_loadgen_max_pps is None:
        return gbps
    pps = pps_for_gbps(gbps, packet_size)
    pps = min(pps, config.software_loadgen_max_pps)
    return gbps_for_pps(pps, packet_size)


#: The canonical warm-up rate (Gbps, before the software-loadgen clamp).
#: Deliberately independent of the measured offered load so every point
#: of a load sweep shares one post-warm-up machine state — the property
#: the warm-up checkpoint cache is built on.
CANONICAL_WARM_GBPS = 8.0


def _fixed_load_plan(config: SystemConfig, packet_size: int, echoes: bool,
                     warmup_us: Optional[float]) -> WarmupPlan:
    """The load-independent warm-up plan for a fixed-rate run."""
    return WarmupPlan(
        min_warm_us=max(warmup_us if warmup_us is not None
                        else config.warmup_us,
                        config.link_delay_us + 100.0),
        warm_packet_target=500,
        packet_size=packet_size,
        warm_rate_gbps=_effective_rate(config, CANONICAL_WARM_GBPS,
                                       packet_size),
        expect_responses=echoes,
    )


def fixed_load_warm_start(config: SystemConfig, app_name: str,
                          packet_size: int,
                          app_options: Optional[dict] = None,
                          warmup_us: Optional[float] = None,
                          seed: int = 0) -> WarmStart:
    """The warm-up of :func:`run_fixed_load`: a node with an attached
    load generator, warmed at the canonical rate."""
    echoes = _registered(app_name)[2]
    if app_name in MEMCACHED_APPS:
        raise ValueError(
            f"{app_name} answers only memcached requests and absorbs "
            f"synthetic frames; load it with run_memcached instead")
    plan = _fixed_load_plan(config, packet_size, echoes, warmup_us)

    def build():
        node = build_node(config, app_name, app_options, seed=seed)
        node.attach_loadgen()
        return node

    def warm(node) -> None:
        node.start()
        node.warmup_and_reset(plan)

    key = warmup_key(config, app_name, packet_size, app_options, plan, seed,
                     TraceOptions.from_env().signature())
    return WarmStart(build, key, warm,
                     {"phase": "warmup", "packet_size": packet_size})


def _drain_nic(node, config: SystemConfig) -> None:
    """Let the node work off its queued backlog, then wait out the last
    round trip.  Checks only the RX FIFO and the two rings: the rig's
    full quiescence walk covers more and would move the drain timing."""
    for _ in range(40):
        nic = node.nic
        if (nic.rx_fifo.held() == 0 and nic.rx_ring.held() == 0
                and nic.tx_ring.held() == 0):
            break
        node.run_us(200.0)
    node.run_us(2 * config.link_delay_us + 100.0)


def run_fixed_load(config: SystemConfig, app_name: str, packet_size: int,
                   gbps: float, n_packets: int = 2000,
                   app_options: Optional[dict] = None,
                   warmup_us: Optional[float] = None,
                   seed: int = 0,
                   warmup_cache: Optional[WarmupCache] = None
                   ) -> FixedLoadResult:
    """Load the node at a fixed rate and measure drops/latency.

    Warm-up runs at the canonical (load-independent) rate, drains to
    quiescence, and resets statistics; with a ``warmup_cache`` that
    post-warm-up state is checkpointed once and restored on every later
    run with the same key — bit-identical to warming up from scratch.
    The memcached apps are refused: they serve only
    :func:`run_memcached`'s requests.
    """
    # Checked first: a bad app, size or rate fails before any warm-up.
    spec = fixed_load_warm_start(config, app_name, packet_size, app_options,
                                 warmup_us, seed)
    echoes = APP_REGISTRY[app_name][2]
    effective_gbps = _effective_rate(config, gbps, packet_size)
    measured = SyntheticConfig(packet_size=packet_size,
                               rate_gbps=effective_gbps, count=None,
                               expect_responses=echoes)
    pps = pps_for_gbps(effective_gbps, packet_size)
    node = warm_start(spec, warmup_cache)
    loadgen = node.loadgen

    # Measured phase — identical code whether the warm-up was simulated
    # or restored from a checkpoint.
    loadgen.start_synthetic(measured)
    # Measured window: enough sends for n_packets AND enough processed
    # packets for a stable steady-state service-rate estimate.  The
    # measurement starts from quiescence, so the service-rate clock only
    # starts once the pipeline has ramped — the first packet needs a
    # link flight to even reach the node, and under overload the rings
    # must fill before the app runs back-to-back; counting that dead
    # time would underestimate the node's capacity.
    window_us = max(n_packets / pps * 1e6, 300.0)
    ramp_us = config.link_delay_us + 50.0
    node.run_us(ramp_us)
    service_base = node.app.packets_processed
    node.run_us(window_us)
    min_processed = 400
    for _ in range(80):
        if node.app.packets_processed - service_base >= min_processed:
            break
        node.run_us(250.0)
        window_us += 250.0
    processed_in_window = node.app.packets_processed - service_base
    service_gbps = (processed_in_window / (window_us * 1e-6)
                    * packet_size * 8 / 1e9)
    loadgen.stop()
    # Drain: the round trip plus however long the node needs to work
    # through its queued backlog (heavily-overloaded runs hold hundreds of
    # packets in the FIFO and rings).
    node.run_us(2 * config.link_delay_us + 200.0)
    _drain_nic(node, config)
    trace_digest = _finalize_run(node)

    sent = loadgen.tx_packets
    if echoes:
        delivered = loadgen.rx_packets
    else:
        delivered = min(sent, node.app.packets_processed)
    drop_rate = max(0.0, 1.0 - delivered / sent) if sent else 0.0
    breakdown = node.nic.drop_fsm.breakdown()
    latency = loadgen.latency.summary()
    _check_result_sanity(node, "fixed_load", sent, delivered,
                         breakdown, latency)
    return FixedLoadResult(
        label=config.label,
        app=app_name,
        packet_size=packet_size,
        offered_gbps=effective_gbps,
        delivered_gbps=effective_gbps * (1.0 - drop_rate),
        drop_rate=drop_rate,
        sent=sent,
        delivered=delivered,
        drop_breakdown=breakdown,
        latency_us=latency,
        llc_miss_rate=node.hierarchy.llc_miss_rate(),
        dma_leaked_lines=node.hierarchy.dma_leaked_lines,
        service_gbps=service_gbps,
        trace_digest=trace_digest,
    )


@dataclass
class MemcachedRunResult:
    """Outcome of one memcached run."""

    label: str
    kernel: bool
    offered_rps: float
    achieved_rps: float
    drop_rate: float
    requests_sent: int
    responses: int
    latency_us: Dict[str, float] = field(default_factory=dict)
    get_hits: int = 0
    get_misses: int = 0
    drop_breakdown: Dict[str, float] = field(default_factory=dict)
    # SHA-256 of the run's exported trace; empty when tracing was off.
    trace_digest: str = ""

    @property
    def mean_latency_us(self) -> float:
        """Mean round-trip latency in microseconds."""
        return self.latency_us.get("mean", 0.0)


#: Canonical memcached warm-up: a fixed comfortable request rate,
#: independent of the measured offered rate (see CANONICAL_WARM_GBPS).
CANONICAL_WARM_REQUESTS = 400
CANONICAL_WARM_RPS = 120_000.0


def memcached_warm_start(config: SystemConfig, kernel: bool,
                         rate_rps: float, n_requests: int,
                         client_config: Optional[MemcachedClientConfig] = None,
                         seed: int = 0) -> WarmStart:
    """The warm-up of :func:`run_memcached`: a memcached node with an
    attached client set up for the measured rate and request count,
    preloaded and warmed at the canonical rate."""
    app_name = "memcached_kernel" if kernel else "memcached_dpdk"
    base = client_config or MemcachedClientConfig()
    plan = WarmupPlan(
        min_warm_us=(CANONICAL_WARM_REQUESTS / CANONICAL_WARM_RPS * 1e6
                     + 500.0),
        warm_packet_target=CANONICAL_WARM_REQUESTS,
        warm_requests=CANONICAL_WARM_REQUESTS,
        warm_rate_rps=CANONICAL_WARM_RPS,
    )
    # Only the warm-relevant client parameters key the snapshot: the
    # measured rate and request count start after the checkpoint moment.
    warm_options = {"client": {
        name: value for name, value in asdict(base).items()
        if name not in ("n_requests", "rate_rps")}}

    def build():
        node = build_node(config, app_name, seed=seed)
        node.attach_memcached_client(
            replace(base, n_requests=n_requests, rate_rps=rate_rps))
        return node

    def warm(node) -> None:
        node.memcached_client.preload(node.app.store)   # functional warm-up
        node.start()
        # Packet-driven warm-up: bring caches/BTB-analogue state to steady
        # state at a comfortable rate before measuring (paper §VI.A).
        node.warmup_and_reset(plan)

    key = warmup_key(config, app_name, 0, warm_options, plan, seed,
                     TraceOptions.from_env().signature())
    return WarmStart(build, key, warm, {"phase": "warmup", "kernel": kernel})


def run_memcached(config: SystemConfig, kernel: bool, rate_rps: float,
                  n_requests: int = 4000,
                  client_config: Optional[MemcachedClientConfig] = None,
                  seed: int = 0,
                  warmup_cache: Optional[WarmupCache] = None
                  ) -> MemcachedRunResult:
    """Load a memcached server (kernel or DPDK) at a fixed request rate."""
    node = warm_start(memcached_warm_start(config, kernel, rate_rps,
                                           n_requests, client_config, seed),
                      warmup_cache)
    client = node.memcached_client

    # Measured phase — identical code whether the warm-up was simulated
    # or restored from a checkpoint.
    client.start()
    # Run to completion of the request phase, then drain the backlog.
    duration_us = n_requests / rate_rps * 1e6
    node.run_us(duration_us + 2 * config.link_delay_us + 500.0)
    _drain_nic(node, config)
    trace_digest = _finalize_run(node)
    # End-to-end drops under-count in short overloaded runs (the ring and
    # FIFO buffer a bounded backlog that eventually drains); the NIC's
    # drop FSM sees the steady-state loss directly.
    nic_drop_fraction = (node.nic.drop_fsm.total_drops
                         / max(client.requests_sent, 1))
    breakdown = node.nic.drop_fsm.breakdown()
    latency = client.latency.summary()
    _check_result_sanity(node, "memcached", client.requests_sent,
                         client.responses_received, breakdown, latency)
    return MemcachedRunResult(
        label=config.label,
        kernel=kernel,
        offered_rps=rate_rps,
        achieved_rps=client.achieved_rps(),
        drop_rate=max(client.drop_rate, min(1.0, nic_drop_fraction)),
        requests_sent=client.requests_sent,
        responses=client.responses_received,
        latency_us=latency,
        get_hits=client.get_hits,
        get_misses=client.get_misses,
        drop_breakdown=breakdown,
        trace_digest=trace_digest,
    )
