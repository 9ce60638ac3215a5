"""Cross-process equivalence: sharded runs reproduce single-process
results bit-for-bit.

The contract under test (docs/sharding.md): for every scenario in the
fabric matrix — {fat-tree-k4, leaf-spine} x {dpdk, kernel} x {uniform,
hotspot, incast} — running the simulation split over 2 or 4 shard
processes yields the *same* flow digest, FCT summary (including p50 and
p99.9), drop-cause totals, per-switch drop counts and frame counters as
the single-process :func:`run_fabric`.

Each single-process reference is computed once per case and cached at
module scope; both shard counts compare against it.  Partition-plan
sanity (complete, balanced, channels on every cut edge) is checked
directly against the builder.
"""

import pytest

from repro.dist.shard import plan_fabric_shards
from repro.harness.fabric import (
    build_fabric_rig,
    fabric_config_for,
    run_fabric,
    run_fabric_sharded,
)
from repro.sim.channel import ChannelHalf
from repro.system.presets import gem5_default

PRESETS = ["fat-tree-k4", "leaf-spine"]
STACKS = ["dpdk", "kernel"]

# Pattern -> (load, n_flows): the same operating points as
# tests/test_fabric_scenarios.py (uniform/hotspot below the knee,
# incast oversubscribed so drops occur and the drop paths are compared
# too).
PATTERN_POINTS = {
    "uniform": (0.35, 100),
    "hotspot": (0.5, 100),
    "incast": (0.7, 160),
}

MATRIX = [(preset, stack, pattern)
          for preset in PRESETS
          for stack in STACKS
          for pattern in PATTERN_POINTS]

SHARD_COUNTS = [2, 4]

_single_cache = {}


def _single(preset, stack, pattern):
    key = (preset, stack, pattern)
    if key not in _single_cache:
        load, n_flows = PATTERN_POINTS[pattern]
        _single_cache[key] = run_fabric(
            gem5_default(), preset, stack, pattern=pattern, load=load,
            n_flows=n_flows, seed=0)
    return _single_cache[key]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("preset,stack,pattern", MATRIX)
def test_sharded_run_is_bit_identical(preset, stack, pattern, shards):
    single = _single(preset, stack, pattern)
    load, n_flows = PATTERN_POINTS[pattern]
    sharded = run_fabric_sharded(
        gem5_default(), preset, stack, pattern=pattern, load=load,
        n_flows=n_flows, seed=0, shards=shards)

    assert sharded.flow_digest == single.flow_digest, \
        f"{preset}/{stack}/{pattern} x{shards}: flow digest diverged"
    assert sharded.fct_us == single.fct_us
    assert sharded.drop_breakdown == single.drop_breakdown
    assert sharded.per_switch_drops == single.per_switch_drops
    assert sharded.flows_started == single.flows_started
    assert sharded.flows_completed == single.flows_completed
    assert sharded.frames_sent == single.frames_sent
    assert sharded.frames_delivered == single.frames_delivered
    assert sharded.drop_rate == single.drop_rate


@pytest.mark.parametrize("preset,pattern", [("fat-tree-k4", "incast"),
                                            ("leaf-spine", "hotspot")])
def test_sharded_run_under_strict_invariants(monkeypatch, preset, pattern):
    """Strict checking runs the per-event invariants inside every shard
    process too, and changes no result: the two-shard flow digest equals
    the single-process strict run."""
    # Set before the shards fork, so each shard inherits the mode.
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "strict")
    kwargs = dict(pattern=pattern, load=0.5, n_flows=100, seed=0)
    single = run_fabric(gem5_default(), preset, "dpdk", **kwargs)
    sharded = run_fabric_sharded(gem5_default(), preset, "dpdk", shards=2,
                                 **kwargs)
    assert sharded.flow_digest == single.flow_digest


def test_sharded_run_is_deterministic_across_reruns():
    load, n_flows = PATTERN_POINTS["hotspot"]
    first = run_fabric_sharded(gem5_default(), "fat-tree-k4", "dpdk",
                               pattern="hotspot", load=load,
                               n_flows=n_flows, seed=0, shards=2)
    second = run_fabric_sharded(gem5_default(), "fat-tree-k4", "dpdk",
                                pattern="hotspot", load=load,
                                n_flows=n_flows, seed=0, shards=2)
    assert first == second


def test_seed_still_changes_the_schedule_when_sharded():
    load, n_flows = PATTERN_POINTS["uniform"]
    a = run_fabric_sharded(gem5_default(), "leaf-spine", "dpdk",
                           pattern="uniform", load=load, n_flows=n_flows,
                           seed=0, shards=2)
    b = run_fabric_sharded(gem5_default(), "leaf-spine", "dpdk",
                           pattern="uniform", load=load, n_flows=n_flows,
                           seed=7, shards=2)
    assert a.flow_digest != b.flow_digest


def test_one_shard_falls_back_to_single_process():
    load, n_flows = PATTERN_POINTS["uniform"]
    single = _single("leaf-spine", "kernel", "uniform")
    fallback = run_fabric_sharded(gem5_default(), "leaf-spine", "kernel",
                                  pattern="uniform", load=load,
                                  n_flows=n_flows, seed=0, shards=1)
    assert fallback == single


# ----------------------------------------------------------------------
# Partition plans: complete, balanced, and every cut edge is a channel.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("preset,shards", [
    ("fat-tree-k4", 2), ("fat-tree-k4", 4),
    ("leaf-spine", 2), ("leaf-spine", 4),
])
def test_plan_covers_every_component_evenly(preset, shards):
    fab_cfg = fabric_config_for(gem5_default(), preset, "dpdk")
    plan = plan_fabric_shards(fab_cfg, shards)
    assert len(plan.hosts) == fab_cfg.n_hosts
    assert set(plan.hosts) == set(range(shards))
    assert set(plan.switches.values()) <= set(range(shards))
    # Hosts spread evenly: every shard owns the same number.
    per_shard = [plan.hosts.count(s) for s in range(shards)]
    assert len(set(per_shard)) == 1


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_build_cuts_no_edge_without_a_channel(shards):
    """In a shard's wiring graph, every binding between two *real*
    local components stays intra-shard; connectivity to remote
    components exists only through channel halves."""
    fab_cfg = fabric_config_for(gem5_default(), "fat-tree-k4", "dpdk")
    plan = plan_fabric_shards(fab_cfg, shards)
    total_channels = 0
    for shard_id in range(shards):
        fabric = build_fabric_rig(gem5_default(), "fat-tree-k4", "dpdk",
                                  seed=0, shard_plan=plan,
                                  shard_id=shard_id)
        assert fabric.channels, "interior shard must have cut links"
        total_channels += len(fabric.channels)
        local = ({id(h) for h in fabric.local_hosts}
                 | {id(s) for s in fabric.local_switches})
        for _la, pa, _lb, pb, _meta in fabric.topology.edges():
            for port in (pa, pb):
                owner = port.owner
                if isinstance(owner, ChannelHalf):
                    continue
                assert id(owner) in local, \
                    f"direct binding to remote component {owner}"
    # Halves pair up: the same cut link appears once per side.
    assert total_channels % 2 == 0


def test_plan_rejects_shard_counts_that_do_not_divide():
    fab_cfg = fabric_config_for(gem5_default(), "fat-tree-k4", "dpdk")
    with pytest.raises(ValueError, match="must divide"):
        plan_fabric_shards(fab_cfg, 3)
    with pytest.raises(ValueError, match="at least 1"):
        plan_fabric_shards(fab_cfg, 0)
