"""Fabric run primitives: build a fabric, offer flows, collect results.

The fabric counterpart of :mod:`repro.harness.runner`: the same
warm-up / checkpoint-restore / measured-window / drain shape, applied to
a whole switch fabric instead of a single node.  The warm-up plan is
deliberately *load- and pattern-independent* (a canonical trickle of
uniform traffic), so every point of a fabric load sweep shares one
post-warm-up snapshot through the warm-up cache.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.harness.runner import _finalize_run
from repro.harness.warmup_cache import (
    WarmStart,
    WarmupCache,
    warm_start,
    warmup_key,
)
from repro.loadgen.flowgen import (
    FlowGenConfig,
    FlowTrafficGenerator,
    flow_digest_from,
    resolve_size_cdf,
)
from repro.net.fabric import Fabric, FabricConfig, build_fabric
from repro.sim.checkpoint import CheckpointError
from repro.sim.invariants import InvariantViolation
from repro.sim.simobject import Simulation
from repro.system.config import SystemConfig
from repro.system.presets import FABRIC_PRESETS


def host_service_ns(config: SystemConfig, stack: str) -> float:
    """Per-frame host service cost derived from the platform's measured
    per-packet cycle costs (:class:`repro.cpu.kernels.KernelCosts`).

    DPDK hosts pay the PMD per-packet cost plus amortized mempool
    get/put and an RX-burst share; kernel hosts pay the softirq
    per-packet path, an skb allocation, and amortized interrupt +
    syscall entry (NAPI batch of 8).  This keeps the paper's stack
    contrast — tens of ns vs most of a microsecond per packet — without
    simulating 16 full microarchitectural nodes.
    """
    costs = config.costs
    freq_hz = config.core.freq_hz
    if stack == "dpdk":
        cycles = (costs.pmd_per_packet_cycles
                  + costs.mempool_get_put_cycles
                  + costs.pmd_rx_burst_cycles / 8.0)
    elif stack == "kernel":
        cycles = (costs.softirq_per_packet_cycles
                  + costs.skb_alloc_cycles
                  + costs.interrupt_cycles / 8.0
                  + costs.syscall_cycles / 8.0)
    else:
        raise ValueError(f"unknown stack {stack!r}")
    return cycles / freq_hz * 1e9


@dataclass(frozen=True)
class FabricWarmupPlan:
    """The load-independent warm-up phase for a fabric run.

    A short burst of uniform traffic at a canonical low load exercises
    every tier of the fabric (ECMP spreads the warm flows across the
    core), then the fabric drains to quiescence and resets statistics —
    the state :meth:`repro.net.fabric.Fabric.checkpoint` captures.
    """

    warm_flows: int = 32
    warm_load: float = 0.15
    warm_pattern: str = "uniform"
    warm_size_cdf: str = "smoke"
    drain_chunk_us: float = 200.0
    max_drain_chunks: int = 400


@dataclass
class FabricRunResult:
    """Outcome of one flow-level fabric run."""

    label: str
    preset: str
    stack: str
    pattern: str
    offered_load: float
    n_flows: int
    flows_started: int
    flows_completed: int
    frames_sent: int
    frames_delivered: int
    drop_rate: float
    #: FCT percentiles in microseconds (count/mean/p50/p95/p99/p999/...).
    fct_us: Dict[str, float] = field(default_factory=dict)
    #: Fraction of total drops by cause (sums to 1, or empty when clean).
    drop_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Window drop counts by switch name and cause (nonzero only).
    per_switch_drops: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: SHA-256 over the sorted flow completion records — the
    #: determinism anchor (tracer-independent).
    flow_digest: str = ""
    #: SHA-256 of the exported trace; empty when tracing was off.
    trace_digest: str = ""


def fabric_config_for(config: SystemConfig, preset: str,
                      stack: str) -> FabricConfig:
    """Resolve a named fabric preset against a platform config: the
    preset supplies the geometry, the platform supplies link parameters
    and the per-frame host service cost for the chosen stack."""
    try:
        make: Callable[..., FabricConfig] = FABRIC_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown fabric preset {preset!r}; expected one of "
            f"{sorted(FABRIC_PRESETS)}") from None
    fab_cfg = make(stack=stack)
    if fab_cfg.host_service_ns == 0.0:
        fab_cfg = replace(fab_cfg,
                          host_service_ns=host_service_ns(config, stack))
    return fab_cfg


def build_fabric_rig(config: SystemConfig, preset: str, stack: str,
                     seed: int = 0, shard_plan=None,
                     shard_id: int = 0) -> Fabric:
    """Build a fabric plus its attached flow generator, validated.

    With a ``shard_plan`` (:class:`repro.dist.shard.ShardPlan`), only the
    components owned by ``shard_id`` are instantiated — remote ones
    become stubs, boundary links become channel halves — and the flow
    generator, which still synthesizes the complete deterministic
    schedule, injects only the flows whose source host is local.
    """
    fab_cfg = fabric_config_for(config, preset, stack)
    sim = Simulation(seed=seed)
    label = f"fabric.{preset}.{stack}"
    fabric = build_fabric(sim, fab_cfg, name=label,
                          shard_plan=shard_plan, shard_id=shard_id)
    flow_filter = None
    if shard_plan is not None:
        flow_filter = (
            lambda flow: shard_plan.host_shard(flow.src) == shard_id)
    generator = FlowTrafficGenerator(
        sim, "flowgen", fabric.hosts, fabric.host_groups(),
        fab_cfg.link_bandwidth_bps, flow_filter=flow_filter)
    fabric.attach_generator(generator)
    fabric.validate_wiring()
    return fabric


def _run_phase(run_us: Callable[[float], object], idle: Callable[[], bool],
               ready: Callable[[], bool], plan: FabricWarmupPlan,
               label: str, chunk_us: float = 50.0,
               max_chunks: int = 4000) -> None:
    """Advance in fixed chunks until every flow is injected and no frame
    is in flight (``idle``), then in drain chunks until the fabric is
    checkpoint-ready (``ready``).  The one loop of the single-process run
    and the shard coordinator, so both test at the same absolute ticks.
    """
    for _ in range(max_chunks):
        if idle():
            break
        run_us(chunk_us)
    else:
        raise CheckpointError(
            f"{label}: flow phase failed to drain after "
            f"{max_chunks} chunks of {chunk_us}us")
    for _ in range(plan.max_drain_chunks):
        if ready():
            return
        run_us(plan.drain_chunk_us)
    raise CheckpointError(
        f"{label}: fabric failed to reach quiescence after "
        f"{plan.max_drain_chunks} drain chunks of {plan.drain_chunk_us}us")


def _run_fabric_phase(fabric: Fabric, plan: FabricWarmupPlan) -> None:
    _run_phase(fabric.run_us,
               lambda: not fabric.generator.active and fabric.quiescent(),
               fabric._checkpoint_ready, plan, fabric.label)


def _warm_gen_config(plan: FabricWarmupPlan) -> FlowGenConfig:
    return FlowGenConfig(pattern=plan.warm_pattern, load=plan.warm_load,
                         n_flows=plan.warm_flows,
                         size_cdf=plan.warm_size_cdf)


def fabric_warm_start(config: SystemConfig, preset: str, stack: str,
                      seed: int = 0) -> WarmStart:
    """The warm-up of :func:`run_fabric`: a canonical uniform trickle,
    drained to quiescence, statistics reset."""
    plan = FabricWarmupPlan()

    def build() -> Fabric:
        return build_fabric_rig(config, preset, stack, seed=seed)

    def key(fabric: Fabric) -> str:
        app_options = {"fabric": fabric.config.canonical_dict()}
        return warmup_key(config, f"fabric:{preset}:{stack}", 0,
                          app_options, plan, seed,
                          fabric.sim.tracer._options_signature())

    def warm(fabric: Fabric) -> None:
        fabric.generator.start(_warm_gen_config(plan))
        _run_fabric_phase(fabric, plan)
        fabric.reset_measurement()

    return WarmStart(build, key, warm, {"phase": "warmup"})


def run_fabric(config: SystemConfig, preset: str, stack: str,
               pattern: str = "uniform", load: float = 0.3,
               n_flows: int = 200, size_cdf: str = "smoke",
               seed: int = 0,
               warmup_cache: Optional[WarmupCache] = None
               ) -> FabricRunResult:
    """Run one open-loop flow phase through a fabric and measure FCTs.

    Warm-up runs a canonical uniform trickle, drains, and resets
    statistics; with ``warmup_cache`` (or ``REPRO_WARMUP_CACHE``) set,
    that state is checkpointed once and restored on every later run
    with the same key — bit-identical to warming up from scratch, and
    shared across patterns and loads.
    """
    fabric = warm_start(fabric_warm_start(config, preset, stack, seed),
                        warmup_cache)

    # Measured phase — identical code whether the warm-up was simulated
    # or restored from a checkpoint.
    generator = fabric.generator
    resolve_size_cdf(size_cdf)   # fail fast on unknown names
    generator.start(FlowGenConfig(pattern=pattern, load=load,
                                  n_flows=n_flows, size_cdf=size_cdf))
    _run_fabric_phase(fabric, FabricWarmupPlan())
    trace_digest = _finalize_run(fabric)

    tallies = [_fabric_tally(fabric)]
    result = _fabric_result(tallies, config, preset, stack, pattern, load,
                            n_flows, generator.fct_summary(), trace_digest)
    if fabric.sim.invariants.mode != "off":
        _check_fabric_sanity(result, tallies, fabric.sim.now,
                             "harness.fabric")
    return result


def _fabric_tally(fabric: Fabric) -> dict:
    """What one fabric — or one shard's slice of it — contributes to a
    run result, as plain data that can cross a process boundary."""
    generator = fabric.generator
    return {
        "records": [r.as_tuple() for r in generator._records],
        "window_started": generator.flows_started,
        "frames_sent": fabric.frames_sent(),
        "frames_delivered": fabric.frames_delivered(),
        "drop_counts": fabric.drop_breakdown(),
        "per_switch_drops": fabric.per_switch_drops(),
        "channel_out": sum(half.frames_out for half in fabric.channels),
        "channel_in": sum(half.frames_in for half in fabric.channels),
    }


def _fabric_result(tallies: List[dict], config: SystemConfig, preset: str,
                   stack: str, pattern: str, load: float, n_flows: int,
                   fct_us: Dict[str, float],
                   trace_digest: str = "") -> FabricRunResult:
    """Fold :func:`_fabric_tally` outputs — one per shard, or one for a
    single-process run — into a result with the given FCT summary."""
    started = sum(t["window_started"] for t in tallies)
    sent = sum(t["frames_sent"] for t in tallies)
    record_tuples = [r for t in tallies for r in t["records"]]
    drop_counts: Counter = Counter()
    per_switch: Dict[str, Dict[str, int]] = {}
    for tally in tallies:
        drop_counts.update(tally["drop_counts"])
        per_switch.update(tally["per_switch_drops"])
    total_drops = sum(drop_counts.values())
    breakdown = ({cause: count / total_drops
                  for cause, count in sorted(drop_counts.items())}
                 if total_drops else {})
    return FabricRunResult(
        label=config.label,
        preset=preset,
        stack=stack,
        pattern=pattern,
        offered_load=load,
        n_flows=n_flows,
        flows_started=started,
        flows_completed=len(record_tuples),
        frames_sent=sent,
        frames_delivered=sum(t["frames_delivered"] for t in tallies),
        drop_rate=(total_drops / sent) if sent else 0.0,
        fct_us=fct_us,
        drop_breakdown=breakdown,
        per_switch_drops=per_switch,
        flow_digest=flow_digest_from(started, record_tuples),
        trace_digest=trace_digest,
    )


def _check_fabric_sanity(result: FabricRunResult, tallies: List[dict],
                         tick: int, source: str) -> None:
    """Harness-level cross-checks on the reported numbers.  Internal
    conservation is the invariant registry's job, but a shard's laws
    close over its own channel counters: only the merged tallies can
    see a frame lost *between* shards."""
    fails = []
    if result.flows_completed > result.flows_started:
        fails.append(f"completed {result.flows_completed} flows but only "
                     f"{result.flows_started} started")
    if not 0 <= result.frames_delivered <= result.frames_sent:
        fails.append(f"delivered {result.frames_delivered} outside "
                     f"[0, sent {result.frames_sent}]")
    share = sum(result.drop_breakdown.values())
    if result.drop_breakdown and not 0.999 < share < 1.001:
        fails.append(f"drop-cause breakdown sums to {share:.6f}, not 1: "
                     f"{result.drop_breakdown}")
    count = result.fct_us.get("count", 0)
    if count != result.flows_completed:
        fails.append(f"FCT samples ({count:g}) != completed flows "
                     f"({result.flows_completed})")
    channel_out = sum(t["channel_out"] for t in tallies)
    channel_in = sum(t["channel_in"] for t in tallies)
    if channel_out != channel_in:
        fails.append(f"{channel_out} frames left their shard over a "
                     f"channel but {channel_in} arrived at the peer")
    if fails:
        raise InvariantViolation([f"{source}: {msg}" for msg in fails],
                                 tick=tick, phase="harness")


def run_fabric_sharded(config: SystemConfig, preset: str, stack: str,
                       pattern: str = "uniform", load: float = 0.3,
                       n_flows: int = 200, size_cdf: str = "smoke",
                       seed: int = 0, shards: int = 2,
                       warmup_cache: Optional[WarmupCache] = None
                       ) -> FabricRunResult:
    """Same contract as :func:`run_fabric`, simulated across ``shards``
    processes — see :mod:`repro.dist.shard`.  The flow digest is
    bit-identical to the single-process run.  Imported lazily because
    the dist layer builds on this module.
    """
    from repro.dist.shard import run_fabric_sharded as _impl
    return _impl(config, preset, stack, pattern=pattern, load=load,
                 n_flows=n_flows, size_cdf=size_cdf, seed=seed,
                 shards=shards, warmup_cache=warmup_cache)
