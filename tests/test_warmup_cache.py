"""Warm-up cache behaviour under failure: corruption, version drift,
and restore failures must all degrade to re-simulating the warm-up —
a damaged cache can cost time but can never change results.
"""

import dataclasses
import json
import os

import pytest

from repro.harness.parallel import (
    SweepExecutor,
    execute_point,
    fabric_point,
    fixed_load_point,
    memcached_point,
    msb_point,
    prewarm_point,
)
from repro.harness.runner import (
    _fixed_load_plan,
    fixed_load_warm_start,
    run_fixed_load,
)
from repro.harness.warmup_cache import (
    WARMUP_CACHE_ENV,
    WarmupCache,
    warmup_cache_from_env,
    warmup_key,
)
from repro.sim.checkpoint import CHECKPOINT_FORMAT, compute_digest
from repro.system.presets import gem5_default, with_core


def _reference(config, **kw):
    return dataclasses.asdict(run_fixed_load(config, "testpmd", 256, 8.0,
                                             n_packets=600, **kw))


def _entry_path(cache):
    entries = sorted(cache.root.glob("warmup-*.json"))
    assert len(entries) == 1
    return entries[0]


class TestKeying:
    def test_key_ignores_nothing_it_should_depend_on(self):
        config = gem5_default()
        plan = _fixed_load_plan(config, 256, True, None)
        sig = {"enabled": False}
        base = warmup_key(config, "testpmd", 256, None, plan, 0, sig)
        assert base == warmup_key(config, "testpmd", 256, None, plan, 0,
                                  sig)
        assert base != warmup_key(config, "touchfwd", 256, None, plan, 0,
                                  sig)
        assert base != warmup_key(config, "testpmd", 512, None, plan, 0,
                                  sig)
        assert base != warmup_key(config, "testpmd", 256, None, plan, 1,
                                  sig)
        assert base != warmup_key(config, "testpmd", 256,
                                  {"proc_time_ns": 40.0}, plan, 0, sig)
        assert base != warmup_key(with_core(config, ooo=False), "testpmd",
                                  256, None, plan, 0, sig)
        assert base != warmup_key(config, "testpmd", 256, None, plan, 0,
                                  {"enabled": True})

    def test_key_excludes_the_store_option(self):
        config = gem5_default()
        plan = _fixed_load_plan(config, 256, True, None)
        sig = {"enabled": False}
        assert warmup_key(config, "testpmd", 256, {"store": object()},
                          plan, 0, sig) == \
            warmup_key(config, "testpmd", 256, None, plan, 0, sig)


class TestCorruptionRecovery:
    def test_truncated_entry_is_deleted_and_resimulated(self, tmp_path):
        config = gem5_default()
        cache = WarmupCache(tmp_path)
        expected = _reference(config)
        _reference(config, warmup_cache=cache)
        path = _entry_path(cache)
        path.write_text(path.read_text()[:100])

        result = _reference(config, warmup_cache=cache)
        assert result == expected
        assert cache.corrupt_entries == 1
        assert cache.hits == 0
        # The corrupt entry was replaced by a good one.
        assert cache.saves == 2
        result = _reference(config, warmup_cache=cache)
        assert result == expected
        assert cache.hits == 1

    def test_bitflipped_entry_fails_the_digest_and_recovers(self,
                                                            tmp_path):
        config = gem5_default()
        cache = WarmupCache(tmp_path)
        expected = _reference(config, warmup_cache=cache)
        path = _entry_path(cache)
        doc = json.loads(path.read_text())
        doc["sim"]["events"]["now"] += 1
        path.write_text(json.dumps(doc))

        assert _reference(config, warmup_cache=cache) == expected
        assert cache.corrupt_entries == 1

    def test_version_mismatched_entry_misses(self, tmp_path):
        config = gem5_default()
        cache = WarmupCache(tmp_path)
        expected = _reference(config, warmup_cache=cache)
        path = _entry_path(cache)
        doc = json.loads(path.read_text())
        doc["format"] = CHECKPOINT_FORMAT + 1
        doc["digest"] = compute_digest(doc)   # digest valid, format not
        path.write_text(json.dumps(doc))

        assert _reference(config, warmup_cache=cache) == expected
        assert cache.corrupt_entries == 1
        assert not path.exists() or cache.saves == 2

    def test_restore_failure_discards_and_rebuilds(self, tmp_path):
        """A digest-valid checkpoint whose *content* cannot restore
        (schema drift from another code version): the runner discards
        it, rebuilds the node, and warms up from scratch."""
        config = gem5_default()
        cache = WarmupCache(tmp_path)
        expected = _reference(config)

        # Forge a valid-looking entry under testpmd's key whose payload
        # belongs to a different application.
        impostor = fixed_load_warm_start(config, "touchfwd", 256)
        node = impostor.build()
        impostor.warm(node)
        target = fixed_load_warm_start(config, "testpmd", 256)
        key = target.key(target.build())
        cache.put(key, node.checkpoint())

        result = _reference(config, warmup_cache=cache)
        assert result == expected
        assert cache.hits == 1          # the entry *loaded*...
        assert not cache.path_for(key).exists() or cache.saves == 2
        # ...but the fresh warm-up overwrote it with a good snapshot.
        assert _reference(config, warmup_cache=cache) == expected


class TestEnvironmentPlumbing:
    def test_from_env_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(WARMUP_CACHE_ENV, raising=False)
        assert warmup_cache_from_env() is None

    def test_from_env_points_at_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(WARMUP_CACHE_ENV, str(tmp_path / "warm"))
        cache = warmup_cache_from_env()
        assert cache is not None
        assert cache.root == tmp_path / "warm"
        assert cache.root.is_dir()

    def test_runner_picks_up_env_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv(WARMUP_CACHE_ENV, str(tmp_path))
        config = gem5_default()
        expected = _reference(config)
        assert _reference(config) == expected
        assert list(tmp_path.glob("warmup-*.json")), \
            "runner ignored REPRO_WARMUP_CACHE"

    def test_executor_exports_and_restores_env(self, monkeypatch,
                                               tmp_path):
        monkeypatch.delenv(WARMUP_CACHE_ENV, raising=False)
        ex = SweepExecutor(jobs=1, warmup_cache_dir=tmp_path)
        point = fixed_load_point(gem5_default(), "testpmd", 256, 8.0,
                                 n_packets=600)
        with_cache = ex.run([point])[0]
        assert os.environ.get(WARMUP_CACHE_ENV) is None, \
            "executor leaked REPRO_WARMUP_CACHE"
        assert list(tmp_path.glob("warmup-*.json"))
        plain = SweepExecutor(jobs=1).run([point])[0]
        assert dataclasses.asdict(with_cache) == dataclasses.asdict(plain)

    def test_executor_shares_snapshot_across_loads(self, tmp_path):
        config = gem5_default()
        ex = SweepExecutor(jobs=1, warmup_cache_dir=tmp_path)
        ex.run([fixed_load_point(config, "testpmd", 256, gbps,
                                 n_packets=600)
                for gbps in (6.0, 8.0, 10.0)])
        # Same rng_label => same effective seed => one shared snapshot.
        assert len(list(tmp_path.glob("warmup-*.json"))) == 1


#: One small point per kind that shares warm-ups across a sweep.  The MSB
#: ceiling sits below the node's capacity so the search stops after its
#: first probe, which is the one the sweep prewarms.
CONTRACT_POINTS = {
    "fixed_load": lambda c: fixed_load_point(c, "testpmd", 256, 8.0,
                                             n_packets=400),
    "msb": lambda c: msb_point(c, "testpmd", 256, max_gbps=2.0,
                               n_packets=400),
    "memcached": lambda c: memcached_point(c, False, 150_000.0,
                                           n_requests=400),
    "fabric": lambda c: fabric_point(c, "leaf-spine", "dpdk", load=0.3,
                                     n_flows=60),
}


class TestPrewarmRunKeyContract:
    """``prewarm_point`` must store exactly the snapshot the point's run
    looks up: if the two keys drift apart, every sweep worker silently
    re-simulates its warm-up instead of restoring it."""

    @pytest.mark.parametrize("kind", sorted(CONTRACT_POINTS))
    def test_run_restores_the_prewarmed_snapshot(self, kind, monkeypatch,
                                                 tmp_path):
        point = CONTRACT_POINTS[kind](gem5_default())
        monkeypatch.delenv(WARMUP_CACHE_ENV, raising=False)
        cold = dataclasses.asdict(execute_point(point))

        monkeypatch.setenv(WARMUP_CACHE_ENV, str(tmp_path))
        assert prewarm_point(point) is True
        entries = sorted(tmp_path.glob("warmup-*.json"))
        assert len(entries) == 1
        assert prewarm_point(point) is False

        cache = warmup_cache_from_env()
        saves, hits = cache.saves, cache.hits
        warm = dataclasses.asdict(execute_point(point))
        assert sorted(tmp_path.glob("warmup-*.json")) == entries
        assert cache.saves == saves, "the run simulated its own warm-up"
        assert cache.hits == hits + 1
        assert warm == cold
