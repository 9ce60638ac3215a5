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
- ``_poison_logged_sleep`` appends a line to ``app_options["log"]``,
                          then sleeps ``app_options["sleep"]`` seconds
                          (a healthy neighbour that counts its runs)
- ``_poison_crash_after`` waits for the file ``app_options["after"]``,
                          then behaves like ``_poison_child_crash``

Cache behaviour (hit / miss / corrupted entry) is covered here too since
it is the other recovery path.  A crash or timeout costs only its own
point, a warm-up checkpoint that fails to restore *inside a child* is
discarded and rebuilt there, and no failure may leave a torn or wrong
result-cache entry or a child process behind.
"""

import dataclasses
import json
import multiprocessing

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


def _logged(app: str, log, sleep: float) -> SweepPoint:
    return SweepPoint(kind="_poison_logged_sleep", app=app,
                      app_options={"log": str(log), "sleep": sleep})


def _runs(log) -> int:
    """How many times the logged point behind ``log`` started."""
    return len(log.read_text().splitlines())


def _sim_points(n: int, n_packets: int = 200):
    config = gem5_default()
    return [fixed_load_point(config, "testpmd", 256, 5.0 + 2.0 * i,
                             n_packets=n_packets) for i in range(n)]


class TestWorkerExceptions:
    def test_worker_exception_propagates(self):
        ex = SweepExecutor(jobs=2, timeout_s=30.0)
        with pytest.raises(SweepPointError, match="injected exception"):
            ex.run(_poison("_poison_raise", 2))
        assert multiprocessing.active_children() == []

    def test_serial_exception_propagates(self):
        ex = SweepExecutor(jobs=1)
        with pytest.raises(SweepPointError, match="injected exception"):
            ex.run(_poison("_poison_raise", 1))
        assert multiprocessing.active_children() == []


class TestTimeouts:
    def test_hanging_point_times_out(self):
        ex = SweepExecutor(jobs=2, timeout_s=0.4, max_retries=1)
        with pytest.raises(SweepTimeoutError, match="no result within"):
            ex.run(_poison("_poison_hang", 2))
        # Each hanging point is retried once before the error surfaces,
        # so at least two timeouts and one retry must have been counted.
        assert ex.stats.timeouts >= 2
        assert ex.stats.retries >= 1
        assert multiprocessing.active_children() == []

    def test_timeout_does_not_leak_workers(self):
        ex = SweepExecutor(jobs=2, timeout_s=0.3, max_retries=0)
        with pytest.raises(SweepTimeoutError):
            ex.run(_poison("_poison_hang", 2))
        # The shutdown path terminated everything; a later run on the
        # same executor still works (with a budget real sims fit in).
        ex.timeout_s = 120.0
        results = ex.run(_sim_points(2))
        assert len(results) == 2
        assert multiprocessing.active_children() == []


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
        assert multiprocessing.active_children() == []

    def test_unrecoverable_crash_raises(self):
        ex = SweepExecutor(jobs=2, timeout_s=30.0, max_retries=1)
        with pytest.raises(SweepPointError, match="crashes everywhere"):
            ex.run(_poison("_poison_crash", 1) + _poison(
                "_poison_child_crash", 1))
        assert multiprocessing.active_children() == []

    def test_healthy_points_survive_a_poisoned_neighbour(self):
        points = _sim_points(2) + _poison("_poison_child_crash", 1)
        ex = SweepExecutor(jobs=2, timeout_s=60.0, max_retries=1)
        results = ex.run(points)
        serial = SweepExecutor(jobs=1).run(_sim_points(2))
        for got, want in zip(results[:2], serial):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert results[2]["via"] == "serial-fallback"
        assert multiprocessing.active_children() == []


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
    """A crash amid a longer sweep: eight unique points at ``jobs=2``,
    one of which kills its child.  Only the poisoned point is charged
    with the crash; every healthy point before and after it still runs
    to a result that matches the serial reference bit-for-bit."""

    def test_crash_mid_batch_requeues_batch_mates(self):
        sims = _sim_points(7, n_packets=120)
        # The crashing point sits mid-sweep, with healthy points queued
        # behind it and one running beside it: none may inherit the
        # crash.
        points = sims[:4] + _poison("_poison_child_crash", 1) + sims[4:]
        ex = SweepExecutor(jobs=2, timeout_s=120.0, max_retries=0)
        results = ex.run(points)

        serial = SweepExecutor(jobs=1).run(sims)
        for got, want in zip(results[:4] + results[5:], serial):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert results[4]["via"] == "serial-fallback"
        # Exactly one crash, charged to the poisoned point; no healthy
        # point burned a retry or a fallback.
        assert ex.stats.crashes == 1
        assert ex.stats.retries == 0
        assert ex.stats.serial_fallbacks == 1
        assert ex.stats.executed == len(points)
        assert multiprocessing.active_children() == []

    def test_crash_mid_fabric_batch_requeues_batch_mates(self):
        """Same guarantee with fabric points around the crash: a child
        dying mid-sweep costs exactly the poisoned point, and every
        fabric result still matches the serial reference
        bit-for-bit."""
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
        assert multiprocessing.active_children() == []


class TestTimeoutRetry:
    def test_timeout_then_clean_retry_succeeds(self, tmp_path):
        """Two points that hang once each time out in their own
        children, and each retry on a fresh child completes — the sweep
        succeeds with both timeouts and both retries counted, no
        fallback, no error."""
        points = [
            SweepPoint(kind="_poison_hang_once", app=f"h{i}",
                       app_options={"flag": str(tmp_path / f"flag{i}")})
            for i in range(2)
        ]
        ex = SweepExecutor(jobs=2, timeout_s=1.0, max_retries=1)
        results = ex.run(points)
        assert [r["via"] for r in results] == ["retry", "retry"]
        assert ex.stats.timeouts == 2
        assert ex.stats.retries == 2
        assert ex.stats.crashes == 0
        assert ex.stats.serial_fallbacks == 0
        assert multiprocessing.active_children() == []


class TestFailureCostsOnlyItsOwnPoint:
    """A crash or timeout charges and re-runs only its own point: a
    healthy neighbour that is mid-run when it happens runs exactly
    once."""

    def test_crash_leaves_a_running_neighbour_alone(self, tmp_path):
        log = tmp_path / "logged.log"
        points = [
            _logged("logged", log, 1.5),
            # Crashes only once the logged point is running beside it.
            SweepPoint(kind="_poison_crash_after", app="crash",
                       app_options={"after": str(log)}),
        ]
        ex = SweepExecutor(jobs=2, timeout_s=30.0, max_retries=1)
        results = ex.run(points)
        assert results[0]["via"] == "logged"
        assert results[1]["via"] == "serial-fallback"
        assert _runs(log) == 1
        assert ex.stats.crashes == 2
        assert ex.stats.retries == 1
        assert ex.stats.serial_fallbacks == 1
        assert multiprocessing.active_children() == []

    def test_timeout_leaves_a_running_neighbour_alone(self, tmp_path):
        """The long point starts when the short one ends, before the
        hang's deadline, and ends after that deadline yet within its
        own budget."""
        short_log, long_log = tmp_path / "short.log", tmp_path / "long.log"
        points = [
            SweepPoint(kind="_poison_hang_once", app="hang",
                       app_options={"flag": str(tmp_path / "flag")}),
            _logged("short", short_log, 1.0),
            _logged("long", long_log, 2.5),
        ]
        ex = SweepExecutor(jobs=2, timeout_s=3.0, max_retries=1)
        results = ex.run(points)
        assert [r["via"] for r in results] == ["retry", "logged", "logged"]
        assert _runs(short_log) == 1
        assert _runs(long_log) == 1
        assert ex.stats.timeouts == 1
        assert ex.stats.retries == 1
        assert multiprocessing.active_children() == []


class TestWorkerWarmRestore:
    def test_restore_failure_in_worker_recovers(self, tmp_path):
        """A digest-valid warm-up entry whose payload cannot restore
        (schema drift from another code version) is discarded *inside a
        child*: the child re-warms from scratch, replaces the entry,
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
        assert multiprocessing.active_children() == []

        # The children rebuilt the entry: the on-disk snapshot now
        # belongs to the right application.
        doc = json.loads(cache.path_for(key).read_text())
        assert doc["meta"]["app"] != impostor_app
        # And a later run restoring it still matches bit-for-bit.
        again = SweepExecutor(jobs=1, warmup_cache_dir=warm_dir)
        for got, want in zip(again.run(points), serial):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)


class TestCacheIntegrityUnderFailure:
    def test_cache_never_poisoned_by_worker_failures(self, tmp_path):
        """Child crashes (and the serial fallback they trigger) must
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
        assert multiprocessing.active_children() == []

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
