"""The batched hot path must be invisible in results.

``REPRO_EVENT_BATCH=1`` (the default) turns on the same-tick FIFO run
queue and pooled per-packet events; ``REPRO_EVENT_BATCH=0`` restores the
reference one-fresh-event-per-packet pure-heap path.  The two must be
*bit-identical* in everything observable: every measured counter, every
latency percentile, and — the strongest check — the trace digest, which
hashes the full ordered event stream of the run.

Hypothesis drives the comparison across all the paper's applications
(DPDK: testpmd / touchfwd / touchdrop / rxptx / memcached_dpdk; kernel:
iperf / memcached_kernel), packet sizes, loads and seeds, the two-core
pipeline-mode forwarder, and across the fabric components (switches,
fabric hosts and, sharded, channel halves).
The flag is read when the event queue and each event pool are
constructed, so flipping the environment between two fresh runs in one
process is sufficient; forked shards inherit it.
"""

import dataclasses
import os
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.fabric import run_fabric_sharded
from repro.harness.runner import run_fixed_load, run_memcached
from repro.loadgen.ether_load_gen import SyntheticConfig
from repro.sim.checkpoint import Stateful, is_serializable
from repro.system.node import DpdkNode
from repro.system.presets import gem5_default

FIXED_LOAD_APPS = ["testpmd", "touchfwd", "touchdrop", "rxptx", "iperf"]
#: (offered load, flows) per fabric pattern: incast overflows switch
#: queues, so the drop path is compared too.
FABRIC_POINTS = {"uniform": (0.35, 40), "incast": (0.7, 60)}


@contextmanager
def _env(name: str, value: str):
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def _batching(enabled: bool):
    return _env("REPRO_EVENT_BATCH", "1" if enabled else "0")


def _assert_identical(fast, reference):
    fast_dict = dataclasses.asdict(fast)
    reference_dict = dataclasses.asdict(reference)
    # Name the strongest signal first: the digest covers the ordered
    # event stream, so a mismatch means firing order itself diverged.
    assert fast_dict.get("trace_digest") == \
        reference_dict.get("trace_digest"), (
        "trace digests diverged between the batched and reference "
        "event-loop paths")
    assert fast_dict == reference_dict


@settings(max_examples=6, deadline=None)
@given(app=st.sampled_from(FIXED_LOAD_APPS),
       packet_size=st.sampled_from([64, 256, 1024]),
       gbps=st.sampled_from([8.0, 25.0, 55.0]),
       seed=st.integers(min_value=0, max_value=3))
def test_fixed_load_batched_path_is_bit_identical(app, packet_size,
                                                  gbps, seed):
    config = gem5_default()
    with _batching(True):
        fast = run_fixed_load(config, app, packet_size, gbps,
                              n_packets=150, seed=seed)
    with _batching(False):
        reference = run_fixed_load(config, app, packet_size, gbps,
                                   n_packets=150, seed=seed)
    _assert_identical(fast, reference)


@settings(max_examples=3, deadline=None)
@given(kernel=st.booleans(),
       rate_rps=st.sampled_from([100_000.0, 400_000.0]),
       seed=st.integers(min_value=0, max_value=2))
def test_memcached_batched_path_is_bit_identical(kernel, rate_rps, seed):
    config = gem5_default()
    with _batching(True):
        fast = run_memcached(config, kernel, rate_rps,
                             n_requests=250, seed=seed)
    with _batching(False):
        reference = run_memcached(config, kernel, rate_rps,
                                  n_requests=250, seed=seed)
    _assert_identical(fast, reference)


@settings(max_examples=4, deadline=None)
@given(preset=st.sampled_from(["fat-tree-k4", "leaf-spine"]),
       stack=st.sampled_from(["dpdk", "kernel"]),
       pattern=st.sampled_from(sorted(FABRIC_POINTS)),
       shards=st.sampled_from([1, 2]))
def test_fabric_batched_path_is_bit_identical(preset, stack, pattern,
                                              shards):
    config = gem5_default()
    load, n_flows = FABRIC_POINTS[pattern]
    with _batching(True):
        fast = run_fabric_sharded(config, preset, stack, pattern=pattern,
                                  load=load, n_flows=n_flows, seed=1,
                                  shards=shards)
    with _batching(False):
        reference = run_fabric_sharded(config, preset, stack,
                                       pattern=pattern, load=load,
                                       n_flows=n_flows, seed=1,
                                       shards=shards)
    _assert_identical(fast, reference)


def _measured(component, prefix: str):
    """(path, value) of every measured field of ``component``, nested
    :class:`Stateful` fields expanded; a distribution, histogram or drop
    FSM as its serialized state, so values compare by content."""
    for path in getattr(component, "measured_fields", ()):
        value = component
        for name in path.split("."):
            value = getattr(value, name)
        if isinstance(value, Stateful):
            yield from _measured(value, f"{prefix}.{path}")
        else:
            yield f"{prefix}.{path}", (value.serialize_state()
                                       if is_serializable(value) else value)


def _run_pipeline(touch_payload: bool, seed: int) -> dict:
    """A traced pipeline-mode node (two cores and an ``rte_ring``; not a
    registry app, so it has no runner) forwarding a burst of frames."""
    with _env("REPRO_TRACE", "1"):
        node = DpdkNode(gem5_default(), seed=seed)
    node.install_pipeline_app(touch_payload=touch_payload)
    loadgen = node.attach_loadgen()
    node.start()
    loadgen.start_synthetic(SyntheticConfig(packet_size=256, rate_gbps=20.0,
                                            count=300))
    node.run_us(1500.0)
    node.sim.invariants.check(final=True)
    return {"trace_digest": node.sim.tracer.digest(),
            "measured": dict(item for label, component
                             in node.topology.components()
                             for item in _measured(component, label)),
            "fired": node.sim.events.fired,
            "forwarded": node.app.packets_forwarded,
            "latency_us": loadgen.latency.summary()}


@settings(max_examples=2, deadline=None)
@given(touch_payload=st.booleans(),
       seed=st.integers(min_value=0, max_value=3))
def test_pipeline_batched_path_is_bit_identical(touch_payload, seed):
    with _batching(True):
        fast = _run_pipeline(touch_payload, seed)
    with _batching(False):
        reference = _run_pipeline(touch_payload, seed)
    assert fast["forwarded"] == 300
    assert fast["trace_digest"] == reference["trace_digest"], (
        "trace digests diverged between the batched and reference "
        "event-loop paths")
    assert fast == reference
