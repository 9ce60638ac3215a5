"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import time
from pathlib import Path

import pytest

from bench import diff
from bench.child import SpeedProbe, pin_to_idlest_cpu
from bench.suite import (
    END_TO_END,
    ROOT,
    SRC,
    Rep,
    check_points,
    child_env,
    per_layer_spec,
    run_child,
)
from bench.trace import (
    BENCH_DIR,
    LAYERS,
    Tracer,
    layer_calls_in,
    layer_self_times,
    summarize,
)
from bench.workloads import WORKLOADS

REPRO = "/src/repro"


def _key(path: str, name: str):
    return (path, 1, name)


NIC = _key(f"{REPRO}/nic/i8254x.py", "I8254xNic.receive")
SIM = _key(f"{REPRO}/sim/event_queue.py", "EventQueue.run")
DPDK = _key(f"{REPRO}/dpdk/pmd.py", "rx_burst")
PRIVATE = _key(f"{REPRO}/dpdk/pmd.py", "_refill")
HEAPPUSH = _key("~", "<built-in method _heapq.heappush>")
DUMPS = _key("/usr/lib/python3/json/__init__.py", "dumps")
ENCODE = _key("/usr/lib/python3/json/encoder.py", "encode")
EXEC = _key("~", "<built-in method builtins.exec>")
HOOK = _key(str(BENCH_DIR / "trace.py"), "hook")


def _edge(calls, tottime):
    # pstats caller edges: (ncalls, primitive calls, tottime, cumtime)
    return (calls, calls, tottime, tottime)


# (primitive calls, ncalls, tottime, cumtime, callers), as in pstats
STATS = {
    EXEC: (1, 1, 0.25, 10.0, {}),
    SIM: (1, 1, 1.0, 9.0, {EXEC: _edge(1, 1.0)}),
    NIC: (4, 4, 2.0, 5.0, {SIM: _edge(4, 2.0)}),
    DPDK: (3, 3, 0.5, 0.5, {NIC: _edge(2, 0.3), SIM: _edge(1, 0.2)}),
    PRIVATE: (7, 7, 0.1, 0.1, {NIC: _edge(7, 0.1)}),
    # A builtin called from two layers: each edge goes to its caller.
    HEAPPUSH: (15, 15, 0.6, 0.6, {NIC: _edge(10, 0.4), SIM: _edge(5, 0.2)}),
    # Stdlib called by stdlib called by nic: charged through the chain.
    DUMPS: (2, 2, 0.1, 0.8, {NIC: _edge(2, 0.1)}),
    ENCODE: (2, 2, 0.7, 0.7, {DUMPS: _edge(2, 0.7)}),
    # The benchmark's own hook is instrumentation, not the caller's work.
    HOOK: (9, 9, 0.3, 0.3, {SIM: _edge(9, 0.3)}),
}


def test_self_time_charges_stdlib_and_builtins_to_the_calling_layer():
    totals = layer_self_times(STATS, REPRO)
    assert totals["nic"] == pytest.approx(2.0 + 0.4 + 0.1 + 0.7)
    assert totals["sim"] == pytest.approx(1.0 + 0.2)
    assert totals["dpdk"] == pytest.approx(0.5 + 0.1)
    # No repro caller (the interpreter's exec) and the bench hook.
    assert totals["python"] == pytest.approx(0.25 + 0.3)
    assert sum(totals.values()) == pytest.approx(
        sum(entry[2] for entry in STATS.values()))
    assert set(totals) == set(LAYERS) | {"python"}


def test_calls_in_counts_public_calls_from_other_packages():
    calls = layer_calls_in(STATS, REPRO)
    assert calls["dpdk"] == 3       # rx_burst from nic and sim; not _refill
    assert calls["nic"] == 4        # from sim
    assert calls["sim"] == 0        # only the interpreter calls it
    assert calls["net"] == 0


def _summary(samples):
    return {"samples": samples, "median": sorted(samples)[len(samples) // 2]}


@pytest.mark.parametrize("old, new, verdict", [
    ([1.00, 1.02, 0.99], [1.01, 1.00, 1.03], "unchanged"),
    ([1.00, 1.02, 0.99], [1.20, 1.21, 1.19], "regressed"),
    ([1.00, 1.02, 0.99], [0.80, 0.81, 0.82], "improved"),
    # Spread wider than the bound: no verdict either way...
    ([1.00, 1.30, 0.90], [1.05, 1.06, 1.04], "unresolved"),
    ([1.00, 1.02, 0.99], [1.30, 1.00, 1.60], "unresolved"),
    # ...unless every new sample beats every old one.
    ([1.00, 1.30, 0.90], [0.50, 0.60, 0.85], "improved"),
])
def test_diff_classification(old, new, verdict):
    assert diff.classify(_summary(old), _summary(new), 0.10) == verdict


def _report(wall, fail_rate=0.0):
    e2e = {metric: {"median": 1.0, "samples": [1.0, 1.0, 1.0]}
           for metric in END_TO_END}
    e2e["wall_s"] = _summary(wall)
    return {"workloads": {"w": {"end_to_end": e2e, "fail_rate": fail_rate,
                                "digests": ["d"], "per_layer": {}}}}


def test_diff_exit_status_follows_regressions_and_fail_rate():
    base = _report([1.0, 1.01, 0.99])
    assert not diff.compare(base, _report([1.0, 1.02, 0.99]))[1]
    assert diff.compare(base, _report([1.5, 1.52, 1.49]))[1]
    # Noise alone never fails the comparison...
    assert not diff.compare(base, _report([1.0, 1.5, 0.9]))[1]
    # ...but more failed points always does.
    assert diff.compare(base, _report([1.0, 1.0, 1.0], fail_rate=0.25))[1]


def _rep(digests):
    return Rep(data={"digests": digests})


def test_digest_mismatch_counts_as_a_failed_point():
    pinned = ["a", "b", "c"]
    reps = [_rep(["a", "b", "c"]), _rep(["a", "x", "c"]),
            Rep(causes=["timed out after 45s"])]
    attempted, failed, reference, causes = check_points(reps, 3, pinned)
    assert (attempted, failed) == (9, 1 + 3)
    assert reference == pinned
    assert "digest mismatch at point(s) [1]" in causes
    assert "timed out after 45s" in causes


def test_unpinned_seed_needs_repetitions_to_agree():
    reps = [_rep(["a", "b"]), _rep(["a", "b"]), _rep(["a", "z"])]
    attempted, failed, reference, _causes = check_points(reps, 2, None)
    assert (attempted, failed, reference) == (6, 1, ["a", "b"])


def test_child_environment_is_scrubbed():
    outer = {"PATH": "/bin", "PYTHONPATH": "/elsewhere",
             "REPRO_EVENT_BATCH": "0", "REPRO_CHECK_INVARIANTS": "strict",
             "REPRO_TRACE": "1", "REPRO_TRACE_PATH": "t.jsonl",
             "REPRO_WARMUP_CACHE": "/w", "REPRO_JOBS": "4",
             "REPRO_BENCH_JOBS": "4"}
    env = child_env(outer, "/checkout/.bench_tmp/rep-1")
    assert not [name for name in env if name.startswith("REPRO_")]
    assert env["PATH"] == "/bin"
    assert env["PYTHONPATH"] == str(SRC)
    assert env["TMPDIR"] == "/checkout/.bench_tmp/rep-1"


def test_repetition_is_pinned_to_one_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    try:
        cpu = pin_to_idlest_cpu(sample_s=0.01)
        assert cpu in allowed
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, allowed)


def _spin(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_speed_probe_samples_this_process_and_forked_ones(tmp_path):
    probe = SpeedProbe(str(tmp_path))
    probe.start()
    try:
        _spin(0.2)
        own = probe.count
        forked = multiprocessing.get_context("fork").Process(
            target=_spin, args=(0.2,))
        forked.start()
        forked.join()
    finally:
        count, total_s = probe.stop()
    assert own >= 3
    assert len(list(tmp_path.glob("speed-*.json"))) == 1
    assert count >= own + 3
    assert 0 < total_s / count < 0.05
    assert signal.getsignal(signal.SIGVTALRM) == signal.SIG_DFL


def test_failed_child_names_its_cause():
    rep = run_child("no-such-workload", 0, False, timeout=60)
    assert not rep.ok
    assert "KeyError" in rep.causes[0]


def test_traced_testpmd_run_attributes_events_and_time(tmp_path):
    from repro.harness.runner import run_fixed_load
    from repro.sim.simobject import Simulation
    from repro.system.presets import gem5_default

    original_init = Simulation.__init__
    tracer = Tracer(tmp_path)
    with tracer:
        run_fixed_load(gem5_default(), "testpmd", 64, 5.0, n_packets=300)
    assert Simulation.__init__ is original_init
    stats, counters = tracer.merged()
    layers = summarize(stats, counters, os.path.join(str(SRC), "repro"))
    for layer in ("nic", "loadgen", "apps"):
        assert layers[f"{layer}.events"] > 0, layer
    for layer in ("nic", "dpdk", "sim"):
        assert layers[f"{layer}.self_s"] > 0, layer
    for layer in ("net", "dist"):
        assert layers[f"{layer}.events"] == 0, layer
    assert layers["dist.epochs"] == 0
    assert layers["sim.events_total"] == sum(
        layers[f"{layer}.events"] for layer in LAYERS)
    assert layers["phase.measure_s"] > 0 and layers["phase.build_s"] > 0


def test_traced_sharded_run_merges_the_shards(tmp_path):
    from repro.harness.fabric import run_fabric_sharded
    from repro.system.presets import gem5_default

    tracer = Tracer(tmp_path)
    with tracer:
        run_fabric_sharded(gem5_default(), "fat-tree-k4", "dpdk",
                           n_flows=20, shards=2)
    stats, counters = tracer.merged()
    assert len(counters) == 3     # the coordinator and two shard dumps
    layers = summarize(stats, counters, os.path.join(str(SRC), "repro"))
    assert layers["dist.epochs"] > 0
    assert layers["dist.frames_exchanged"] > 0
    assert layers["net.events"] > 0 and layers["net.self_s"] > 0
    assert layers["dist.imbalance"] >= 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == per_layer_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) <= 16 + 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names + list(WORKLOADS))
    assert Path(ROOT / spec["paths"][0]).resolve() == BENCH_DIR
