"""The fabric scenario test matrix (ISSUE 7's first-class deliverable).

{fat-tree K=4, leaf-spine} x {DPDK, kernel} x {uniform, hotspot,
incast} — 12 parametrized cases, each asserting the three properties
the fabric subsystem stands on:

- **conservation at quiescence**: every frame a host sent is either
  processed or charged to exactly one drop cause (the registered
  invariants fire inside ``run_fabric``; the matrix re-checks the
  reported numbers close over the causes);
- **determinism**: re-running a case yields a bit-identical result —
  same flow digest, same FCT percentiles, same per-switch drops;
- **bounded drops under oversubscription**: incast traffic produces a
  nonzero but bounded drop count, all charged to switch output queues.

A module-scoped warm-up cache makes the reruns cheap (each
preset/stack pair simulates its warm-up once and restores it
thereafter) while exercising the restore path across the whole matrix.

The golden fixture pins one small fat-tree run's digest and FCT
summary; regenerate after an intentional behaviour change with
``REPRO_REGEN_GOLDEN=1 pytest tests/test_fabric_scenarios.py``.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.harness.fabric import run_fabric
from repro.harness.parallel import (
    _WARM_STARTS,
    SweepExecutor,
    fabric_point,
)
from repro.harness.warmup_cache import WarmupCache
from repro.net.fabric import DROP_CAUSES, DROP_SWITCH_QUEUE
from repro.system.presets import gem5_default

GOLDEN_DIR = Path(__file__).parent / "golden"

PRESETS = ["fat-tree-k4", "leaf-spine"]
STACKS = ["dpdk", "kernel"]

# Pattern -> (load, n_flows).  Uniform and hotspot run below the knee;
# incast oversubscribes host 0's edge link so its output FIFO overflows
# on every preset/stack combination (probed, deterministic).
PATTERN_POINTS = {
    "uniform": (0.35, 100),
    "hotspot": (0.5, 100),
    "incast": (0.7, 160),
}

MATRIX = [(preset, stack, pattern)
          for preset in PRESETS
          for stack in STACKS
          for pattern in PATTERN_POINTS]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    return WarmupCache(tmp_path_factory.mktemp("fabric-warm"))


def _run_case(preset, stack, pattern, warm_cache, seed=0):
    load, n_flows = PATTERN_POINTS[pattern]
    return run_fabric(gem5_default(), preset, stack, pattern=pattern,
                      load=load, n_flows=n_flows, seed=seed,
                      warmup_cache=warm_cache)


@pytest.mark.parametrize("preset,stack,pattern", MATRIX)
def test_fabric_scenario(preset, stack, pattern, warm_cache):
    result = _run_case(preset, stack, pattern, warm_cache)

    # -- packet conservation at quiescence -----------------------------
    # run_fabric asserted the registered invariants (switch, host, link
    # and fabric-wide conservation) at final check; the reported window
    # numbers must close over the drop-cause taxonomy too.
    lost = result.frames_sent - result.frames_delivered
    assert lost >= 0
    if lost:
        assert result.drop_breakdown, \
            f"{lost} frames lost but no drop cause charged"
        assert sum(result.drop_breakdown.values()) == pytest.approx(1.0)
    assert set(result.drop_breakdown) <= set(DROP_CAUSES)
    for counts in result.per_switch_drops.values():
        assert set(counts) <= set(DROP_CAUSES)
        assert all(n > 0 for n in counts.values())

    # -- flows actually ran and completed ------------------------------
    assert result.flows_started == PATTERN_POINTS[pattern][1]
    assert 0 < result.flows_completed <= result.flows_started
    assert result.fct_us["count"] == result.flows_completed
    assert result.fct_us["p99"] >= result.fct_us["p50"] > 0

    # -- determinism: a rerun is bit-identical -------------------------
    rerun = _run_case(preset, stack, pattern, warm_cache)
    assert rerun.flow_digest == result.flow_digest, \
        f"{preset}/{stack}/{pattern}: flow digest changed across reruns"
    assert dataclasses.asdict(rerun) == dataclasses.asdict(result), \
        f"{preset}/{stack}/{pattern}: rerun result differs"

    # -- drops: clean where expected, bounded where oversubscribed -----
    if pattern == "incast":
        total_drops = round(result.drop_rate * result.frames_sent)
        assert total_drops > 0, \
            f"{preset}/{stack}: incast produced no drops"
        assert result.drop_rate < 0.5, \
            f"{preset}/{stack}: incast drop rate {result.drop_rate} " \
            f"unbounded"
        assert result.drop_breakdown.get(DROP_SWITCH_QUEUE, 0) > 0, \
            "incast drops must be charged to switch output queues"
        assert result.per_switch_drops, \
            "incast drops must name the congested switch"
    else:
        assert result.drop_rate < 0.05


def test_k4_fat_tree_sustains_10k_flows(warm_cache):
    """The acceptance run: 16 hosts, 10k open-loop flows through the
    batched event loop, FCT percentiles and per-switch drop stats out,
    invariants green at quiescence (checked inside run_fabric)."""
    result = run_fabric(gem5_default(), "fat-tree-k4", "dpdk",
                        pattern="uniform", load=0.5, n_flows=10_000,
                        seed=0, warmup_cache=warm_cache)
    assert result.flows_started == 10_000
    assert result.flows_completed >= 9_900
    for pct in ("p50", "p95", "p99", "p999"):
        assert result.fct_us[pct] > 0
    assert result.fct_us["p999"] >= result.fct_us["p50"]
    assert result.drop_rate < 0.01


def test_seed_changes_the_flow_schedule(warm_cache):
    a = _run_case("leaf-spine", "dpdk", "uniform", warm_cache, seed=0)
    b = _run_case("leaf-spine", "dpdk", "uniform", warm_cache, seed=1)
    assert a.flow_digest != b.flow_digest


def test_kernel_stack_is_slower_than_dpdk(warm_cache):
    """The paper's stack contrast survives at fabric scale: identical
    offered traffic completes slower through kernel-stack hosts."""
    dpdk = _run_case("leaf-spine", "dpdk", "uniform", warm_cache)
    kernel = _run_case("leaf-spine", "kernel", "uniform", warm_cache)
    assert kernel.fct_us["mean"] > dpdk.fct_us["mean"]


def test_bad_measured_inputs_fail_before_the_warm_up(tmp_path):
    """An unknown pattern or size CDF is refused before any warm-up is
    simulated, so no snapshot lands in the warm-up cache."""
    cache = WarmupCache(tmp_path)
    for bad in ({"pattern": "nope"}, {"size_cdf": "nope"}):
        with pytest.raises(ValueError, match="nope"):
            run_fabric(gem5_default(), "leaf-spine", "dpdk", n_flows=20,
                       warmup_cache=cache, **bad)
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Golden regression fixture: one small fat-tree run, pinned.
# ----------------------------------------------------------------------

def test_fabric_golden_small_fat_tree():
    result = run_fabric(gem5_default(), "fat-tree-k4", "dpdk",
                        pattern="uniform", load=0.3, n_flows=60, seed=0)
    computed = {
        "flow_digest": result.flow_digest,
        "flows_started": result.flows_started,
        "flows_completed": result.flows_completed,
        "frames_sent": result.frames_sent,
        "frames_delivered": result.frames_delivered,
        "drop_rate": result.drop_rate,
        "fct_us": {k: round(v, 6) for k, v in result.fct_us.items()},
    }
    path = GOLDEN_DIR / "fabric_k4_small.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(computed, indent=2, sort_keys=True)
                        + "\n")
    if not path.exists():
        pytest.fail(f"golden file {path} missing; generate it with "
                    f"REPRO_REGEN_GOLDEN=1")
    golden = json.loads(path.read_text())
    assert computed == golden, \
        "small fat-tree run drifted from the pinned golden; if the " \
        "change is intentional, regenerate with REPRO_REGEN_GOLDEN=1 " \
        "and review the diff"


# ----------------------------------------------------------------------
# Sweep executor integration (satellite 5)
# ----------------------------------------------------------------------

def _matrix_points(seed=0):
    return [fabric_point(gem5_default(), preset, "dpdk", pattern=pattern,
                         load=PATTERN_POINTS[pattern][0], n_flows=60,
                         seed=seed)
            for preset in PRESETS
            for pattern in ("uniform", "incast")]


def test_fabric_points_share_warm_signature_across_loads():
    """The executor's parent prewarm groups fabric points by the warm-up
    key their runs look up, like fixed-load points: loads share one
    key, host stacks do not."""
    a = fabric_point(gem5_default(), "fat-tree-k4", "dpdk", load=0.2)
    b = fabric_point(gem5_default(), "fat-tree-k4", "dpdk", load=0.8)
    c = fabric_point(gem5_default(), "fat-tree-k4", "kernel", load=0.2)
    key_a, key_b, key_c = (_WARM_STARTS["fabric"](point).key
                           for point in (a, b, c))
    assert isinstance(key_a, str) and len(key_a) == 64
    assert key_a == key_b
    assert key_a != key_c


def test_fabric_sweep_parallel_matches_serial():
    """jobs=2 (with the executor's temporary warm-up cache, since no
    warm-up cache directory is given) returns bit-identical results to
    the serial reference path."""
    points = _matrix_points()
    serial = SweepExecutor(jobs=1).run(points)
    parallel = SweepExecutor(jobs=2, timeout_s=120.0).run(points)
    assert [dataclasses.asdict(r) for r in serial] \
        == [dataclasses.asdict(r) for r in parallel]
