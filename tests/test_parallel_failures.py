"""Failure paths of the parallel sweep executor.

The ``_poison_*`` sweep point kinds (installed by the ``poison_kinds``
fixture in ``conftest.py``) inject worker misbehaviour without running
any simulation:

- ``_poison_raise``       the handler raises (in worker and in-process)
- ``_poison_hang``        the handler sleeps forever (timeout path)
- ``_poison_hang_once``   hangs on its first attempt only, stamping the
                          flag file named in ``app_options["flag"]``
                          (timeout -> clean retry succeeds)
- ``_poison_child_crash`` hard ``os._exit`` in a worker, succeeds
                          in-process (crash -> retry -> serial fallback)
- ``_poison_crash``       hard ``os._exit`` in a worker AND raises
                          in-process (the unrecoverable point)

Cache behaviour (hit / miss / corrupted entry) is covered here too since
it is the other recovery path, as are the persistent-worker batch paths:
a crash mid-batch must requeue the unreported batch-mates, a warm-up
checkpoint that fails to restore *inside a worker* must be discarded and
rebuilt there, and no failure mode may ever leave a torn or wrong entry
in the result cache.
"""

import dataclasses
import json

import pytest

from repro.harness.parallel import (
    CACHE_VERSION,
    ResultCache,
    SweepExecutor,
    SweepPoint,
    SweepPointError,
    SweepTimeoutError,
    cache_key,
    fixed_load_point,
)
from repro.harness.runner import fixed_load_warm_start
from repro.harness.warmup_cache import WarmupCache
from repro.system.presets import gem5_default

pytestmark = pytest.mark.usefixtures("poison_kinds")


def _poison(kind: str, n: int = 1):
    return [SweepPoint(kind=kind, app=f"p{i}") for i in range(n)]


def _sim_points(n: int, n_packets: int = 200):
    config = gem5_default()
    return [fixed_load_point(config, "testpmd", 256, 5.0 + 2.0 * i,
                             n_packets=n_packets) for i in range(n)]


class TestWorkerExceptions:
    def test_worker_exception_propagates(self):
        ex = SweepExecutor(jobs=2, timeout_s=30.0)
        with pytest.raises(SweepPointError, match="injected exception"):
            ex.run(_poison("_poison_raise", 2))

    def test_serial_exception_propagates(self):
        ex = SweepExecutor(jobs=1)
        with pytest.raises(SweepPointError, match="injected exception"):
            ex.run(_poison("_poison_raise", 1))


class TestTimeouts:
    def test_hanging_point_times_out(self):
        ex = SweepExecutor(jobs=2, timeout_s=0.4, max_retries=1)
        with pytest.raises(SweepTimeoutError, match="no result within"):
            ex.run(_poison("_poison_hang", 2))
        # Each hanging point is retried once before the error surfaces,
        # so at least two timeouts and one retry must have been counted.
        assert ex.stats.timeouts >= 2
        assert ex.stats.retries >= 1

    def test_timeout_does_not_leak_workers(self):
        ex = SweepExecutor(jobs=2, timeout_s=0.3, max_retries=0)
        with pytest.raises(SweepTimeoutError):
            ex.run(_poison("_poison_hang", 2))
        # The shutdown path terminated everything; a later run on the
        # same executor still works (with a budget real sims fit in).
        ex.timeout_s = 120.0
        results = ex.run(_sim_points(2))
        assert len(results) == 2


class TestCrashes:
    def test_crash_retries_then_falls_back_to_serial(self):
        ex = SweepExecutor(jobs=2, timeout_s=30.0, max_retries=1)
        results = ex.run(_poison("_poison_child_crash", 2))
        assert all(r["ok"] for r in results)
        assert all(r["via"] == "serial-fallback" for r in results)
        # Both points: initial crash + one retry crash, then fallback.
        assert ex.stats.crashes == 4
        assert ex.stats.retries == 2
        assert ex.stats.serial_fallbacks == 2

    def test_unrecoverable_crash_raises(self):
        ex = SweepExecutor(jobs=2, timeout_s=30.0, max_retries=1)
        with pytest.raises(SweepPointError, match="crashes everywhere"):
            ex.run(_poison("_poison_crash", 1) + _poison(
                "_poison_child_crash", 1))

    def test_healthy_points_survive_a_poisoned_neighbour(self):
        points = _sim_points(2) + _poison("_poison_child_crash", 1)
        ex = SweepExecutor(jobs=2, timeout_s=60.0, max_retries=1)
        results = ex.run(points)
        serial = SweepExecutor(jobs=1).run(_sim_points(2))
        for got, want in zip(results[:2], serial):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert results[2]["via"] == "serial-fallback"


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        points = _sim_points(2)
        first = SweepExecutor(jobs=1, cache_dir=tmp_path)
        cold = first.run(points)
        assert first.stats.cache_misses == 2
        assert first.stats.executed == 2

        second = SweepExecutor(jobs=1, cache_dir=tmp_path)
        warm = second.run(points)
        assert second.stats.cache_hits == 2
        assert second.stats.executed == 0
        for got, want in zip(warm, cold):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_key_change_misses(self, tmp_path):
        point = _sim_points(1)[0]
        SweepExecutor(jobs=1, cache_dir=tmp_path).run([point])
        reseeded = dataclasses.replace(point, seed=99)
        ex = SweepExecutor(jobs=1, cache_dir=tmp_path)
        ex.run([reseeded])
        assert ex.stats.cache_hits == 0
        assert ex.stats.executed == 1

    def test_corrupted_entry_is_discarded_and_recomputed(self, tmp_path):
        point = _sim_points(1)[0]
        baseline = SweepExecutor(jobs=1, cache_dir=tmp_path).run([point])[0]
        path = ResultCache(tmp_path).path_for(cache_key(point))
        assert path.exists()
        path.write_text("{ not json at all")

        ex = SweepExecutor(jobs=1, cache_dir=tmp_path)
        healed = ex.run([point])[0]
        assert ex.stats.cache_corrupt >= 1
        assert ex.stats.executed == 1
        assert dataclasses.asdict(healed) == dataclasses.asdict(baseline)
        # The entry was rewritten and is valid again.
        blob = json.loads(path.read_text())
        assert blob["version"] == CACHE_VERSION

    def test_wrong_version_entry_is_treated_as_corrupt(self, tmp_path):
        point = _sim_points(1)[0]
        SweepExecutor(jobs=1, cache_dir=tmp_path).run([point])
        path = ResultCache(tmp_path).path_for(cache_key(point))
        blob = json.loads(path.read_text())
        blob["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(blob))

        ex = SweepExecutor(jobs=1, cache_dir=tmp_path)
        ex.run([point])
        assert ex.stats.cache_corrupt >= 1
        assert ex.stats.executed == 1

    def test_parallel_run_populates_cache_for_serial(self, tmp_path):
        points = _sim_points(3)
        par = SweepExecutor(jobs=2, cache_dir=tmp_path, timeout_s=120.0)
        cold = par.run(points)
        ser = SweepExecutor(jobs=1, cache_dir=tmp_path)
        warm = ser.run(points)
        assert ser.stats.executed == 0
        assert ser.stats.cache_hits == 3
        for got, want in zip(warm, cold):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)


class TestPersistentWorkerBatches:
    """Eight unique points at ``jobs=2`` gives ``batch_size=2``, so a
    worker death mid-batch has an unreported batch-mate to account for:
    the in-flight point is charged with the crash, the batch-mate is
    merely requeued at its current attempt and re-executed elsewhere."""

    def test_crash_mid_batch_requeues_batch_mates(self):
        sims = _sim_points(7, n_packets=120)
        # Index 4 heads the third dispatched batch [4, 5]: the worker
        # announces it, dies, and point 5 (undispatched outcome) must
        # survive via requeue — not inherit the crash.
        points = sims[:4] + _poison("_poison_child_crash", 1) + sims[4:]
        ex = SweepExecutor(jobs=2, timeout_s=120.0, max_retries=0)
        results = ex.run(points)

        serial = SweepExecutor(jobs=1).run(sims)
        for got, want in zip(results[:4] + results[5:], serial):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert results[4]["via"] == "serial-fallback"
        # Exactly one crash, charged to the poisoned point; its
        # batch-mate was requeued without burning a retry or fallback.
        assert ex.stats.crashes == 1
        assert ex.stats.retries == 0
        assert ex.stats.serial_fallbacks == 1
        assert ex.stats.executed == len(points)

    def test_crash_mid_fabric_batch_requeues_batch_mates(self):
        """Same batch-mate guarantee with fabric points in the batches:
        a worker dying mid-fabric-batch costs exactly the poisoned
        point, and every fabric result still matches the serial
        reference bit-for-bit."""
        from repro.harness.parallel import fabric_point

        config = gem5_default()
        fabrics = [fabric_point(config, "leaf-spine", "dpdk",
                                pattern="uniform", load=0.2 + 0.1 * i,
                                n_flows=60) for i in range(7)]
        points = fabrics[:4] + _poison("_poison_child_crash", 1) \
            + fabrics[4:]
        ex = SweepExecutor(jobs=2, timeout_s=120.0, max_retries=0)
        results = ex.run(points)

        serial = SweepExecutor(jobs=1).run(fabrics)
        for got, want in zip(results[:4] + results[5:], serial):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert results[4]["via"] == "serial-fallback"
        assert ex.stats.crashes == 1
        assert ex.stats.retries == 0
        assert ex.stats.serial_fallbacks == 1
        assert ex.stats.executed == len(points)


class TestTimeoutRetry:
    def test_timeout_then_clean_retry_succeeds(self, tmp_path):
        """A point that hangs once times out, the pool is rebuilt, and
        the retry on a fresh worker completes — the sweep succeeds with
        the timeout and retry counted, no fallback, no error.  The
        second hanging point rides the rebuild: requeued uncharged, it
        finds its flag already stamped and just succeeds."""
        points = [
            SweepPoint(kind="_poison_hang_once", app=f"h{i}",
                       app_options={"flag": str(tmp_path / f"flag{i}")})
            for i in range(2)
        ]
        ex = SweepExecutor(jobs=2, timeout_s=1.0, max_retries=1)
        results = ex.run(points)
        assert [r["via"] for r in results] == ["retry", "retry"]
        assert ex.stats.timeouts == 1
        assert ex.stats.retries == 1
        assert ex.stats.crashes == 0
        assert ex.stats.serial_fallbacks == 0


class TestWorkerWarmRestore:
    def test_restore_failure_in_worker_recovers(self, tmp_path):
        """A digest-valid warm-up entry whose payload cannot restore
        (schema drift from another code version) is discarded *inside a
        worker*: the worker re-warms from scratch, replaces the entry,
        and the sweep's results stay bit-identical to a no-cache run."""
        config = gem5_default()
        points = [fixed_load_point(config, "testpmd", 256, rate,
                                   n_packets=200) for rate in (5.0, 7.0)]
        serial = SweepExecutor(jobs=1).run(points)

        # Forge a valid-looking entry under the sweep's warm-up key
        # whose checkpoint belongs to a different application.
        warm_dir = tmp_path / "warm"
        cache = WarmupCache(warm_dir)
        seed = points[0].effective_seed
        impostor = fixed_load_warm_start(config, "touchfwd", 256, seed=seed)
        impostor_node = impostor.build()
        impostor.warm(impostor_node)
        impostor_app = impostor_node.checkpoint()["meta"]["app"]
        target = fixed_load_warm_start(config, "testpmd", 256, seed=seed)
        key = target.key(target.build())
        cache.put(key, impostor_node.checkpoint())

        ex = SweepExecutor(jobs=2, timeout_s=120.0,
                           warmup_cache_dir=warm_dir)
        results = ex.run(points)
        for got, want in zip(results, serial):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert ex.stats.crashes == 0
        assert ex.stats.serial_fallbacks == 0

        # The workers rebuilt the entry: the on-disk snapshot now
        # belongs to the right application.
        doc = json.loads(cache.path_for(key).read_text())
        assert doc["meta"]["app"] != impostor_app
        # And a later run restoring it still matches bit-for-bit.
        again = SweepExecutor(jobs=1, warmup_cache_dir=warm_dir)
        for got, want in zip(again.run(points), serial):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)


class TestCacheIntegrityUnderFailure:
    def test_cache_never_poisoned_by_worker_failures(self, tmp_path):
        """Worker crashes (and the serial fallback they trigger) must
        never leave a torn, stale, or undecodable result-cache entry:
        every file decodes, no temp files survive, and a warm replay is
        pure cache hits, bit-identical to the first run."""
        cache_dir = tmp_path / "results"
        points = _sim_points(3, n_packets=120) + _poison(
            "_poison_child_crash", 1)
        ex = SweepExecutor(jobs=2, timeout_s=120.0, max_retries=0,
                           cache_dir=cache_dir)
        first = ex.run(points)
        assert ex.stats.crashes == 1
        assert ex.stats.serial_fallbacks == 1

        entries = sorted(cache_dir.glob("*.json"))
        assert len(entries) == len(points)
        assert not list(cache_dir.glob("*.tmp"))
        cache = ResultCache(cache_dir)
        for path in entries:
            assert cache.get(path.stem) is not None
        assert cache.corrupt_entries == 0

        replay = SweepExecutor(jobs=2, cache_dir=cache_dir)
        warm = replay.run(points)
        assert replay.stats.executed == 0
        assert replay.stats.cache_hits == len(points)
        for got, want in zip(warm, first):
            if dataclasses.is_dataclass(got):
                assert dataclasses.asdict(got) == dataclasses.asdict(want)
            else:
                assert got == want


class TestConstruction:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepExecutor(jobs=0)
