"""Orchestration: repetitions in fresh child processes, correctness,
and the end-to-end and per-layer metrics built from them.

The parent never imports repro.  Each repetition is a child process in
its own session with every ``REPRO_*`` variable removed, a private
temporary directory inside the checkout, and a timeout; afterwards the
parent checks that the child's session holds no process (sweep worker,
shard) and its temporary directory no ``repro-warm-*`` cache.  At most
one child runs at a time, pinned with everything it forks to one CPU.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from bench.trace import LAYERS, PHASES, PYTHON
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: name -> (unit, bound).  A bound is the share of the baseline median by
#: which the metric may worsen; lower is better for all three.  The two
#: times are scaled to the reference host speed (see bench/child.py).
END_TO_END: Dict[str, Tuple[str, float]] = {
    "wall_s": ("s", 0.15),
    "setup_s": ("s", 0.25),
    "peak_rss_mb": ("MiB", 0.10),
}

#: Untraced repetitions per workload: at least this many in --workload
#: mode, exactly SUITE_REPS (interleaved) in suite mode.
MIN_REPS = 3
SUITE_REPS = 5
REP_TIMEOUT_S = 45.0
TRACED_TIMEOUT_S = 90.0
#: A --workload run must end within 180 s: start no repetition that
#: could time out past this.
RUN_BUDGET_S = 170.0
LEFTOVER_GRACE_S = 3.0


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec += [(f"{layer}.self_s", "s", "lower"),
                 (f"{layer}.share", "ratio", "lower"),
                 (f"{layer}.calls_in", "count", "lower"),
                 (f"{layer}.events", "count", "lower")]
    spec += [(f"{PYTHON}.self_s", "s", "lower"),
             (f"{PYTHON}.share", "ratio", "lower")]
    spec += [(f"phase.{phase}_s", "s", "lower") for phase in PHASES]
    spec += [("sim.events_total", "count", "lower"),
             ("sim.host_us_per_event", "us", "lower"),
             ("harness.points", "count", "higher"),
             ("harness.retries", "count", "lower"),
             ("harness.crashes", "count", "lower"),
             ("harness.timeouts", "count", "lower"),
             ("harness.serial_fallbacks", "count", "lower"),
             ("harness.warm_hits", "count", "higher"),
             ("harness.warm_misses", "count", "lower"),
             ("host.cpu_s", "s", "lower"),
             ("host.cpu_util", "ratio", "higher"),
             ("dist.epochs", "count", "lower"),
             ("dist.useful_epoch_ratio", "ratio", "higher"),
             ("dist.frames_exchanged", "count", "lower"),
             ("dist.local_run_s", "s", "lower"),
             ("dist.inject_s", "s", "lower"),
             ("dist.exchange_s", "s", "lower"),
             ("dist.imbalance", "ratio", "lower"),
             ("trace.overhead", "ratio", "lower")]
    return spec


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def child_env(environ: Dict[str, str], tmpdir) -> Dict[str, str]:
    """The environment of a repetition: no ``REPRO_*`` knob (event
    batching, invariant mode, tracing, warm-up cache, jobs) leaks in,
    repro comes from this checkout, temporary files stay in it, and
    every repetition lays out its dicts and sets the same way."""
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Rep:
    """One repetition's outcome: the child's report, or why it failed."""

    data: dict = field(default_factory=dict)
    causes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.causes


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(name: str, seed: int, traced: bool,
              timeout: float) -> Rep:
    """Run one repetition and check what it left behind."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="rep-", dir=TMP_ROOT))
    dump_dir = tmpdir / "dumps"
    dump_dir.mkdir()
    cmd = [sys.executable, "-m", "bench.child", name, str(seed),
           "1" if traced else "0", str(dump_dir)]
    rep = Rep()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(os.environ, tmpdir),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        out, err = proc.communicate()
        rep.causes.append(f"timed out after {timeout:.0f}s")
    # Sweep workers and shards share the child's session; any still
    # there after a short grace period were left behind.
    deadline = time.monotonic() + LEFTOVER_GRACE_S
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _group_alive(proc.pid):
        _kill_group(proc.pid)
        rep.causes.append("left worker or shard processes behind")
    stray = sorted(p.name for p in tmpdir.glob("repro-warm-*"))
    if stray:
        rep.causes.append(f"left warm-up caches behind: {stray}")
    shutil.rmtree(tmpdir, ignore_errors=True)

    lines = [line for line in out.splitlines() if line.strip()]
    try:
        rep.data = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        rep.data = {}
    if "error" in rep.data:
        rep.causes.append(rep.data.pop("error"))
    elif "digests" not in rep.data and not rep.causes:
        tail = " | ".join(err.strip().splitlines()[-3:])
        rep.causes.append(f"exit code {proc.returncode}, no report: {tail}")
    return rep


def timed_reps(name: str, seed: int, seconds: Optional[float] = None,
               log: Callable[[str], None] = lambda _msg: None) -> List[Rep]:
    """At least ``MIN_REPS`` untraced repetitions; with ``seconds``,
    more while the next one is expected to end within it."""
    reps: List[Rep] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and (
                seconds is None or elapsed + longest > seconds):
            break
        if elapsed + REP_TIMEOUT_S > RUN_BUDGET_S:
            break
        began = time.monotonic()
        reps.append(run_child(name, seed, False, REP_TIMEOUT_S))
        longest = max(longest, time.monotonic() - began)
        log(describe_rep(name, reps[-1]))
    return reps


def describe_rep(name: str, rep: Rep) -> str:
    if not rep.ok:
        return f"  {name}: FAILED: {'; '.join(rep.causes)}"
    data = rep.data
    scaled = f" ({data['wall_s']:.3f}s scaled)" if "wall_s" in data else ""
    return f"  {name}: wall {data['raw_wall_s']:.3f}s{scaled}"


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

def load_pins() -> Dict[str, Dict[str, List[str]]]:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text())


def pinned_digests(name: str, seed: int,
                   pins: Dict[str, Dict[str, List[str]]]
                   ) -> Optional[List[str]]:
    """The pinned per-point digests for ``seed``, if any.  A workload
    whose inputs ignore the seed is pinned for every seed."""
    key = str(seed) if WORKLOADS[name].seeded else "0"
    return pins.get(name, {}).get(key)


def check_points(reps: List[Rep], points: int,
                 pinned: Optional[List[str]]
                 ) -> Tuple[int, int, List[str], List[str]]:
    """Count failed points over all repetitions.

    A point fails when its repetition failed (raised, timed out, or left
    processes behind) or its digest differs from the pinned one; without
    a pin, from the digest most repetitions agree on.  Returns
    ``(attempted, failed, reference digests, causes)``.
    """
    if pinned is not None:
        reference = list(pinned)
    else:
        columns = zip(*[r.data["digests"] for r in reps
                        if r.ok and len(r.data["digests"]) == points])
        reference = [Counter(c).most_common(1)[0][0] for c in columns]
    attempted = failed = 0
    causes: List[str] = []
    for rep in reps:
        attempted += points
        if not rep.ok:
            failed += points
            causes.extend(rep.causes)
            continue
        digests = rep.data["digests"]
        bad = [i for i in range(points)
               if i >= len(digests) or i >= len(reference)
               or digests[i] != reference[i]]
        if bad:
            failed += len(bad)
            causes.append(f"digest mismatch at point(s) {bad}")
    return attempted, failed, reference, causes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end(reps: List[Rep]) -> Dict[str, dict]:
    """Median, min, max and sample count of each end-to-end metric over
    the successful repetitions, plus the unscaled times."""
    good = [r.data for r in reps if r.ok]
    out = {}
    units = {metric: unit for metric, (unit, _bound) in END_TO_END.items()}
    units.update(raw_wall_s="s", raw_setup_s="s")
    for metric, unit in units.items():
        samples = [d[metric] for d in good]
        out[metric] = {"unit": unit, "n": len(samples), "samples": samples,
                       "median": statistics.median(samples),
                       "min": min(samples), "max": max(samples)}
    return out


def per_layer(name: str, untraced: List[Rep], traced: Rep
              ) -> Dict[str, float]:
    """Every per-layer metric: the traced pass's numbers plus those
    needing the untraced reference (host cost per event, CPU use,
    executor counters, tracing overhead)."""
    good = [r.data for r in untraced if r.ok]
    wall = statistics.median(d["raw_wall_s"] for d in good)
    cpu = statistics.median(d["cpu_s"] for d in good)
    out = dict(traced.data["layers"])
    events = out["sim.events_total"]
    out["sim.host_us_per_event"] = wall * 1e6 / events if events else 0.0
    executors = [d["executor"] for d in good if d["executor"]]
    out["harness.points"] = (max(e["executed"] for e in executors)
                             if executors else WORKLOADS[name].points)
    for counter in ("retries", "crashes", "timeouts", "serial_fallbacks"):
        out[f"harness.{counter}"] = max((e[counter] for e in executors),
                                        default=0)
    out["host.cpu_s"] = cpu
    # A repetition is pinned to one CPU (bench/child.py).
    out["host.cpu_util"] = cpu / wall
    out["trace.overhead"] = traced.data["raw_wall_s"] / wall
    return {metric: out[metric] for metric, _u, _b in per_layer_spec()}


def top_layers(layers: Dict[str, float], n: int = 3) -> List[str]:
    """The ``n`` repro packages with the most self time."""
    return sorted(LAYERS, key=lambda layer: -layers[f"{layer}.self_s"])[:n]
