"""Failure semantics of the multiprocess shard runner.

A shard that dies mid-epoch must surface as a :class:`ShardCrashError`
naming the dead shard — promptly (the coordinator polls liveness while
waiting on responses, it does not sit out a full command timeout) — and
teardown must leave neither deadlocked peers nor orphan processes.  A
frame lost *between* shards must fail the run: no shard's own
conservation law can see it.
"""

import itertools
import multiprocessing
import os
import time

import pytest

from repro.dist import ShardCrashError
from repro.dist.shard import run_fabric_sharded
from repro.sim.channel import ChannelGroup, ChannelHalf
from repro.sim.invariants import InvariantViolation
from repro.system.presets import gem5_default


def _assert_no_shard_children():
    """Every worker process is joined or killed within a few seconds."""
    deadline = time.monotonic() + 5.0
    while True:
        alive = [p for p in multiprocessing.active_children()
                 if p.name.startswith("repro-shard-")]
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert alive == []


def _crash_shard(monkeypatch, shard_id, epoch):
    """Make shard ``shard_id`` die without a word as it begins sync
    epoch ``epoch``, with its peers waiting on its batch."""
    begin_epoch = ChannelGroup.begin_epoch

    def crashing_begin_epoch(group, horizon):
        name = multiprocessing.current_process().name
        if name == f"repro-shard-{shard_id}" and group.epoch == epoch:
            os._exit(23)
        return begin_epoch(group, horizon)

    # Patched before the shards fork, so every shard inherits it.
    monkeypatch.setattr(ChannelGroup, "begin_epoch", crashing_begin_epoch)


def _run(shards=2):
    return run_fabric_sharded(
        gem5_default(), "fat-tree-k4", "dpdk", pattern="uniform",
        load=0.35, n_flows=100, seed=0, shards=shards)


def test_crash_mid_epoch_raises_named_error_without_orphans(monkeypatch):
    _crash_shard(monkeypatch, 1, 5)
    t0 = time.monotonic()
    with pytest.raises(ShardCrashError) as excinfo:
        _run()
    elapsed = time.monotonic() - t0

    # The error identifies the shard that died, not just "a failure".
    assert excinfo.value.shard_id == 1
    assert "shard 1" in str(excinfo.value)

    # Bounded: liveness polling catches the death within seconds; the
    # surviving peer is torn down without waiting out its 60s
    # peer-receive backstop.
    assert elapsed < 30.0, f"crash detection took {elapsed:.1f}s"

    # No orphans.
    _assert_no_shard_children()


def test_crash_in_first_epoch_of_four_shards(monkeypatch):
    _crash_shard(monkeypatch, 3, 0)
    with pytest.raises(ShardCrashError) as excinfo:
        _run(shards=4)
    assert excinfo.value.shard_id == 3
    _assert_no_shard_children()


def test_clean_run_leaves_no_processes_behind():
    result = _run()
    assert result.flows_completed > 0
    _assert_no_shard_children()


def test_frame_lost_between_shards_fails_the_run(monkeypatch):
    """Drop the 20th frame shard 1 receives from shard 0.  Each shard's
    flow-conservation law still balances (the frame left one shard and
    never entered the other), so only the merged channel tally can see
    the loss — in every invariant mode."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "off")
    inject = ChannelHalf.inject
    from_shard0 = itertools.count(1)

    def lossy_inject(half, deliver_at, frame):
        if half.peer_shard != 0 or next(from_shard0) != 20:
            inject(half, deliver_at, frame)

    # Patched before the shards fork, so every shard inherits it.
    monkeypatch.setattr(ChannelHalf, "inject", lossy_inject)
    with pytest.raises(InvariantViolation, match="dist.shard: .*channel"):
        _run()
