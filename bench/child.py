"""One repetition of one workload, in a fresh process.

``python -m bench.child WORKLOAD SEED TRACED DUMP_DIR`` times the import
of repro plus one build of the workload's first config (setup), then the
workload call itself (wall), and prints one JSON object as its last line
of output: the timings, peak memory, CPU time, one SHA-256 per point
result, the sweep executor's counters and, when traced, the per-layer
numbers.

The repetition runs on one CPU: the child pins itself to the allowed CPU
that was idlest just before it starts, and every process it forks
(sweep workers, shards) inherits the pin.  On a shared host with two
vCPUs, work spread over both measures the neighbours' load as much as
the program.

An untraced repetition also measures how fast that CPU is while the
repetition runs (:class:`SpeedProbe`).  Its ``setup_s`` and ``wall_s``
are the raw times, less the probe's own time, scaled to the reference
host's speed, which takes out the slowdowns a shared machine's other
tenants cause; the raw times are reported too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import heapq
import json
import os
import resource
import signal
import sys
import time
import traceback
from multiprocessing import util as mp_util
from typing import Tuple

from bench.trace import Tracer, summarize
from bench.workloads import WORKLOADS

#: Events in one probe sample, and the process CPU time between samples:
#: about 1 ms of probing per 20 ms of work.
PROBE_EVENTS = 1500
PROBE_INTERVAL_S = 0.02
#: The mean probe sample on the reference host: the shared 2-vCPU VM
#: (Xeon, 2.1 GHz, Python 3.11) the baselines were recorded on, when
#: quiet.  A repetition whose samples take twice as long ran on a host
#: twice as slow, and its times are halved.
REFERENCE_PROBE_S = 0.0011


def result_digest(result) -> str:
    """SHA-256 over a point result's fields (the correctness anchor)."""
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class _Component:
    __slots__ = ("index", "handled", "table")

    def __init__(self, index: int) -> None:
        self.index = index
        self.handled = 0
        self.table = {}

    def handle(self, when: int, payload: int) -> int:
        self.handled += 1
        self.table[payload & 255] = when
        return when + self.index * 7 + (payload & 15)


def calibrate(events: int = PROBE_EVENTS) -> float:
    """Seconds a fixed discrete-event loop takes on this host right now.

    It does what the simulator does most (heap scheduling, method calls,
    attribute and dict updates) but shares no code with repro, so a
    change to repro never moves it.
    """
    start = time.perf_counter()
    components = [_Component(i) for i in range(64)]
    heap = [(i, i, i) for i in range(256)]
    seq = len(heap)
    for _ in range(events):
        when, _seq, payload = heapq.heappop(heap)
        target = components[(payload * 31 + seq) & 63]
        heapq.heappush(heap, (target.handle(when, payload), seq, seq))
        seq += 1
    return time.perf_counter() - start


class SpeedProbe:
    """Samples :func:`calibrate` every ``PROBE_INTERVAL_S`` of CPU time,
    in this process and in every multiprocessing process it forks
    (shards), for as long as it runs.

    A neighbour that slows the CPU slows the samples in the same stretch
    of time as the workload, which before-and-after calibration misses:
    slow spells on a shared host last from a fraction of a second to a
    few seconds.  A forked process dumps its tally into ``dump_dir``
    when it exits.
    """

    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = dump_dir
        self.count = 0
        self.total_s = 0.0

    def _sample(self, _signum, _frame) -> None:
        self.total_s += calibrate()
        self.count += 1

    def _arm(self) -> None:
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.siginterrupt(signal.SIGVTALRM, False)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def _in_forked_process(self) -> None:
        self.count, self.total_s = 0, 0.0
        self._arm()
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        path = os.path.join(self.dump_dir, f"speed-{os.getpid()}.json")
        with open(path, "w") as out:
            json.dump([self.count, self.total_s], out)

    def start(self) -> None:
        self._arm()
        mp_util.register_after_fork(self, SpeedProbe._in_forked_process)

    def stop(self) -> Tuple[int, float]:
        """Stop sampling; return the sample count and seconds, summed
        over this process and the forked ones that have exited."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        count, total_s = self.count, self.total_s
        for path in glob.glob(os.path.join(self.dump_dir, "speed-*.json")):
            with open(path) as dump:
                forked_count, forked_s = json.load(dump)
            count += forked_count
            total_s += forked_s
        return count, total_s


def _idle_ticks() -> dict:
    """Idle plus iowait clock ticks per CPU, from /proc/stat."""
    idle = {}
    with open("/proc/stat") as stat:
        for line in stat:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                idle[int(name[3:])] = int(fields[3]) + int(fields[4])
    return idle


def pin_to_idlest_cpu(sample_s: float = 0.1) -> int:
    """Pin this process, and what it will fork, to the allowed CPU that
    was idlest over the last ``sample_s`` seconds; return that CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    try:
        before = _idle_ticks()
        time.sleep(sample_s)
        after = _idle_ticks()
        cpu = max(allowed, key=lambda c: after.get(c, 0) - before.get(c, 0))
    except (OSError, ValueError, IndexError):
        cpu = allowed[0]
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # waited-for descendant (sweep workers, shards).
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run(name: str, seed: int, traced: bool, dump_dir: str) -> dict:
    workload = WORKLOADS[name]
    probe = None if traced else SpeedProbe(dump_dir)
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    import repro.dist.shard  # the import is part of setup
    workload.build()
    setup_s = time.perf_counter() - start
    setup_probe_s = probe.total_s if probe is not None else 0.0

    cpu_start = _cpu_s()
    tracer = Tracer(dump_dir) if traced else None
    start = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        results, executor = workload.run(seed)
    wall_s = time.perf_counter() - start
    if probe is not None:
        count, probe_s = probe.stop()
    out = {
        "raw_setup_s": setup_s,
        "raw_wall_s": wall_s,
        "cpu_s": _cpu_s() - cpu_start,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": [result_digest(r) for r in results],
        "executor": executor,
    }
    if tracer is not None:
        stats, counters = tracer.merged()
        out["layers"] = summarize(stats, counters,
                                  os.path.dirname(repro.__file__))
    else:
        # Every process of the repetition shares one CPU, so the time
        # the probe took in any of them is time the workload waited.
        out["probe_s"] = probe_s / count
        scale = REFERENCE_PROBE_S / out["probe_s"]
        out["setup_s"] = (setup_s - setup_probe_s) * scale
        out["wall_s"] = (wall_s - (probe_s - setup_probe_s)) * scale
    return out


def main(argv) -> int:
    name, seed, traced, dump_dir = argv
    try:
        pin_to_idlest_cpu()
        out = run(name, int(seed), traced == "1", dump_dir)
    except Exception as exc:
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
