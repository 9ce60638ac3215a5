"""Warm-up cache behaviour under failure: corruption, version drift,
and restore failures must all degrade to re-simulating the warm-up —
a damaged cache can cost time but can never change results.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

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
from repro.harness.warmup_cache import WarmupCache, prewarm, warmup_key
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


#: Prints the result-cache key of one sweep point and the warm-up key of
#: its snapshot, as computed by whichever ``repro`` is on the path.
_KEYS_SCRIPT = """
from repro.harness.parallel import cache_key, fixed_load_point
from repro.harness.runner import _fixed_load_plan
from repro.harness.warmup_cache import warmup_key
from repro.system.presets import gem5_default
config = gem5_default()
print(cache_key(fixed_load_point(config, "testpmd", 256, 5.0, 600)))
print(warmup_key(config, "testpmd", 256, None,
                 _fixed_load_plan(config, 256, True, None), 0,
                 {"enabled": False}))
"""


def _keys_under(src_root: Path, cwd: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src_root),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", _KEYS_SCRIPT], cwd=cwd,
                         env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert len(out) == 2
    return out


def test_a_source_edit_changes_both_cache_keys(tmp_path):
    """The keys fold in a fingerprint of the ``repro`` sources: a
    byte-identical copy elsewhere keys the same, and one changed byte in
    a model module changes the result-cache and the warm-up key."""
    import repro

    original = Path(repro.__file__).resolve().parent
    copy_root = tmp_path / "src"
    shutil.copytree(original, copy_root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    keys = _keys_under(original.parent, tmp_path)
    assert _keys_under(copy_root, tmp_path) == keys

    module = copy_root / "repro" / "nic" / "fifo.py"
    data = bytearray(module.read_bytes())
    first_letter = data.index(b'"""') + 3
    data[first_letter] ^= 0x20            # flip one docstring letter's case
    module.write_bytes(bytes(data))
    edited = _keys_under(copy_root, tmp_path)
    assert edited[0] != keys[0], "result-cache key ignored a source edit"
    assert edited[1] != keys[1], "warm-up key ignored a source edit"


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
        key = target.key
        cache.put(key, node.checkpoint())

        result = _reference(config, warmup_cache=cache)
        assert result == expected
        assert cache.hits == 1          # the entry *loaded*...
        assert not cache.path_for(key).exists() or cache.saves == 2
        # ...but the fresh warm-up overwrote it with a good snapshot.
        assert _reference(config, warmup_cache=cache) == expected


class TestEnvironmentPlumbing:
    """Only the CLI reads ``REPRO_WARMUP_CACHE`` (as the default of
    ``--warmup-cache``); a library run uses the cache it is passed."""

    def test_runner_ignores_the_env_variable(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_WARMUP_CACHE", str(tmp_path))
        _reference(gem5_default())
        assert list(tmp_path.iterdir()) == [], \
            "a run without a cache wrote to REPRO_WARMUP_CACHE"

    def test_serial_executor_ignores_the_env_variable(self, monkeypatch,
                                                      tmp_path):
        monkeypatch.setenv("REPRO_WARMUP_CACHE", str(tmp_path))
        SweepExecutor(jobs=1).run([fixed_load_point(
            gem5_default(), "testpmd", 256, 8.0, n_packets=600)])
        assert list(tmp_path.iterdir()) == [], \
            "an executor without a cache wrote to REPRO_WARMUP_CACHE"

    def test_executor_exports_and_restores_env(self, monkeypatch,
                                               tmp_path):
        monkeypatch.delenv("REPRO_WARMUP_CACHE", raising=False)
        ex = SweepExecutor(jobs=1, warmup_cache_dir=tmp_path)
        point = fixed_load_point(gem5_default(), "testpmd", 256, 8.0,
                                 n_packets=600)
        with_cache = ex.run([point])[0]
        assert os.environ.get("REPRO_WARMUP_CACHE") is None, \
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
    def test_run_restores_the_prewarmed_snapshot(self, kind, tmp_path):
        point = CONTRACT_POINTS[kind](gem5_default())
        cold = dataclasses.asdict(execute_point(point))

        cache = WarmupCache(tmp_path)
        assert prewarm_point(point, cache) is True
        entries = sorted(tmp_path.glob("warmup-*.json"))
        assert len(entries) == 1
        assert prewarm_point(point, cache) is False

        saves, hits = cache.saves, cache.hits
        warm = dataclasses.asdict(execute_point(point, cache))
        assert sorted(tmp_path.glob("warmup-*.json")) == entries
        assert cache.saves == saves, "the run simulated its own warm-up"
        assert cache.hits == hits + 1
        assert warm == cold

    def test_a_prewarm_hit_builds_nothing(self, tmp_path):
        cache = WarmupCache(tmp_path)
        spec = fixed_load_warm_start(gem5_default(), "testpmd", 256)
        assert prewarm(spec, cache) is True

        def build():
            raise AssertionError("a prewarm that hit the cache built a rig")

        assert prewarm(dataclasses.replace(spec, build=build), cache) is False
