"""Acceptance benchmark for the parallel sweep executor.

A six-point TestPMD bandwidth sweep is pushed through the executor three
ways — serial, ``jobs=4`` (one forked child per point) with a shared
warm-up cache, and warm result-cache replay — and must produce
bit-identical results each time.  The parallel mode must beat serial
wall-clock even on a single core: its children fork after the parent
has prewarmed the sweep's shared warm-up checkpoint, so the six points
pay for one warm-up instead of six.  The warm-replay run must execute
zero simulations and reports its (near-zero) wall time and hit count
honestly — it measures cache lookup cost, not simulation speed.

A single-run speed gate rides along: one 600-packet TestPMD run must
stay at least 1.3x faster than the pre-batching baseline recorded below,
locking in the event-loop/hot-path optimisation this executor rides on.
"""

import dataclasses
import time

from repro.harness.parallel import SweepExecutor, fixed_load_point
from repro.harness.report import format_table
from repro.harness.runner import run_fixed_load
from repro.system.presets import gem5_default

SWEEP_RATES = [5.0, 15.0, 25.0, 35.0, 45.0, 55.0]

#: Best-of-3 wall clock of ``run_fixed_load(gem5_default(), "testpmd",
#: 256, 25.0, n_packets=600)`` measured immediately before the batched
#: event loop landed (per-packet heap events, no same-tick FIFO run
#: queue, no event pooling).  The single-run gate below asserts against
#: this recorded constant, not a re-measurement.
PRE_BATCHING_SINGLE_RUN_S = 2.46
SINGLE_RUN_MIN_SPEEDUP = 1.3


def _sweep_points(n_packets: int = 600):
    config = gem5_default()
    return [fixed_load_point(config, "testpmd", 256, rate,
                             n_packets=n_packets)
            for rate in SWEEP_RATES]


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        t0 = time.monotonic()
        fn()
        best = min(best, time.monotonic() - t0)
    return best


def test_parallel_executor_acceptance(benchmark, tmp_path, save_result):
    points = _sweep_points()

    # Single-run gate: the hot-path work the sweep rows build on.
    single_s = _best_of(3, lambda: run_fixed_load(
        gem5_default(), "testpmd", 256, 25.0, n_packets=600))
    speedup = PRE_BATCHING_SINGLE_RUN_S / single_s

    # Best-of-2 for the compared rows: single-core hosts time-share the
    # children, so one noisy round must not decide the verdict.
    serial_ex = SweepExecutor(jobs=1)
    t0 = time.monotonic()
    serial = serial_ex.run(points)
    serial_s = min(time.monotonic() - t0,
                   _best_of(1, lambda: SweepExecutor(jobs=1).run(points)))

    # jobs>1 provisions its own ephemeral warm-up cache: children fork
    # after the parent prewarms the sweep's shared warm-up checkpoint.
    warm_round_ex = SweepExecutor(jobs=4, timeout_s=300.0)
    t0 = time.monotonic()
    warm_round = warm_round_ex.run(points)
    warm_round_s = time.monotonic() - t0

    parallel_ex = SweepExecutor(jobs=4, timeout_s=300.0,
                                cache_dir=tmp_path)

    def parallel_run():
        return parallel_ex.run(points)

    t0 = time.monotonic()
    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    parallel_s = min(time.monotonic() - t0, warm_round_s)

    assert [dataclasses.asdict(r) for r in warm_round] == \
        [dataclasses.asdict(r) for r in serial]

    # Determinism: jobs=4 must be bit-identical to the serial reference.
    assert [dataclasses.asdict(r) for r in parallel] == \
        [dataclasses.asdict(r) for r in serial]
    assert parallel_ex.stats.executed == len(points)

    # Warm cache: a fresh executor replays the sweep without running a
    # single simulation, and still matches bit-for-bit.  Its wall time
    # is cache lookup cost — reported as such, not as a simulation time.
    cached_ex = SweepExecutor(jobs=4, cache_dir=tmp_path)
    t0 = time.monotonic()
    cached = cached_ex.run(points)
    cached_s = time.monotonic() - t0
    assert cached_ex.stats.executed == 0
    assert cached_ex.stats.cache_hits == len(points)
    assert [dataclasses.asdict(r) for r in cached] == \
        [dataclasses.asdict(r) for r in serial]
    assert cached_s < serial_s

    save_result("parallel_executor", format_table(
        "Parallel executor: 6-point TestPMD 256B sweep",
        ["mode", "wall s", "simulated", "cache hits"],
        [["single run @25Gbps (pre-PR 2.46s)", f"{single_s:.2f}",
          1, "-"],
         ["serial (jobs=1)", f"{serial_s:.2f}",
          serial_ex.stats.executed, "-"],
         ["parallel (jobs=4, shared warm-up)", f"{parallel_s:.2f}",
          parallel_ex.stats.executed, "-"],
         ["warm replay (result cache)", f"{cached_s:.3f}",
          cached_ex.stats.executed, cached_ex.stats.cache_hits]]))

    # The headline claims, asserted on every host: the batched hot path
    # holds its recorded speedup, and the jobs=4 sweep beats serial
    # even single-core (one shared warm-up instead of six).
    assert speedup >= SINGLE_RUN_MIN_SPEEDUP, (
        f"single 600-packet run took {single_s:.2f}s; needs >= "
        f"{SINGLE_RUN_MIN_SPEEDUP}x over the recorded "
        f"{PRE_BATCHING_SINGLE_RUN_S}s pre-batching baseline")
    assert parallel_s < serial_s, (
        f"jobs=4 ({parallel_s:.2f}s) should beat serial "
        f"({serial_s:.2f}s): children share one prewarmed checkpoint")
