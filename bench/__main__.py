"""Command line of the benchmark.

``python -m bench [--seed N] [--out FILE]``
    The whole suite: ``SUITE_REPS`` untraced repetitions of every
    workload, interleaved round-robin, then one traced pass each.
    Writes ``bench/results/BENCH_<yyyymmdd>.json`` and prints a table.

``python -m bench --workload NAME --seed N --seconds S --trace 0|1``
    One workload.  ``--trace 0`` repeats it for ``S`` seconds (at least
    ``MIN_REPS`` times) and reports the end-to-end medians; ``--trace 1``
    runs it once untraced and once traced and reports the per-layer
    metrics.  The last line of output is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python -m bench diff OLD NEW``
    Compare two BENCH files (see bench/diff.py); exits 1 on a
    regression.

``python -m bench pin``
    Re-record the per-point result digests for seeds 0 and 1 in
    bench/digests.json, after a change that is meant to alter results.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from bench import diff
from bench.suite import (
    DIGESTS,
    END_TO_END,
    SUITE_REPS,
    REP_TIMEOUT_S,
    ROOT,
    SRC,
    TRACED_TIMEOUT_S,
    Rep,
    check_points,
    describe_rep,
    end_to_end,
    load_pins,
    per_layer,
    per_layer_spec,
    pinned_digests,
    run_child,
    timed_reps,
    top_layers,
)
from bench.workloads import WORKLOADS

CONTROL = {"fabric-shards2": "fabric-websearch"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_workload(name: str, seed: int, seconds: Optional[float],
                 trace: int) -> int:
    """One workload, one JSON result line."""
    workload = WORKLOADS[name]
    if trace:
        untraced = [run_child(name, seed, False, REP_TIMEOUT_S)]
        traced = run_child(name, seed, True, TRACED_TIMEOUT_S)
        log(describe_rep(name, untraced[0]))
        log(describe_rep(name + " (traced)", traced))
        reps = untraced + [traced]
        usable = untraced[0].ok and traced.ok
    else:
        reps = timed_reps(name, seed, seconds, log)
        usable = any(rep.ok for rep in reps)
    attempted, failed, _reference, causes = check_points(
        reps, workload.points, pinned_digests(name, seed, load_pins()))
    for cause in causes:
        log(f"{name}: {cause}")
    if not usable:
        log(f"{name}: no measurement to report")
        return 1
    if trace:
        layers = per_layer(name, reps[:-1], reps[-1])
        metrics = {m: {"value": layers[m], "unit": unit}
                   for m, unit, _better in per_layer_spec()}
    else:
        summary = end_to_end(reps)
        metrics = {m: {"value": summary[m]["median"], "unit": unit}
                   for m, (unit, _bound) in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_suite(seed: int, out_path) -> int:
    """Suite mode: every workload, interleaved, then traced."""
    started = time.monotonic()
    load_before = os.getloadavg()
    untraced = {name: [] for name in WORKLOADS}
    for round_index in range(SUITE_REPS):
        log(f"round {round_index + 1}/{SUITE_REPS}")
        for name in WORKLOADS:
            untraced[name].append(run_child(name, seed, False,
                                            REP_TIMEOUT_S))
            log(describe_rep(name, untraced[name][-1]))
    log("traced pass")
    traced = {}
    for name in WORKLOADS:
        traced[name] = run_child(name, seed, True, TRACED_TIMEOUT_S)
        log(describe_rep(name, traced[name]))

    pins = load_pins()
    workloads = {}
    for name, workload in WORKLOADS.items():
        reps = untraced[name] + [traced[name]]
        attempted, failed, reference, causes = check_points(
            reps, workload.points, pinned_digests(name, seed, pins))
        entry = {"attempted": attempted, "failed": failed,
                 "failures": causes, "digests": reference,
                 "end_to_end": {}, "per_layer": {}, "top_layers": []}
        if any(rep.ok for rep in untraced[name]):
            entry["end_to_end"] = end_to_end(untraced[name])
            if traced[name].ok:
                entry["per_layer"] = per_layer(name, untraced[name],
                                               traced[name])
                entry["top_layers"] = top_layers(entry["per_layer"])
        workloads[name] = entry
    for name, control in CONTROL.items():
        if workloads[name]["digests"] != workloads[control]["digests"]:
            entry = workloads[name]
            entry["failed"] = entry["attempted"]
            entry["failures"].append(f"result differs from {control}")
    for entry in workloads.values():
        entry["fail_rate"] = entry["failed"] / entry["attempted"]

    report = {
        "date": datetime.date.today().isoformat(),
        "seed": seed,
        "seconds": time.monotonic() - started,
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "commit": _git_commit(),
                 "loadavg_before": list(load_before),
                 "loadavg_after": list(os.getloadavg())},
        "workloads": workloads,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(format_report(report))
    print(f"wrote {out_path}")
    return 0 if all(e["failed"] == 0 for e in workloads.values()) else 1


def format_report(report: dict) -> str:
    lines = [f"{'workload':18s} {'wall_s':>8s} {'setup_s':>8s} "
             f"{'rss_MiB':>8s} {'fail':>6s}  top layers by self time"]
    for name, entry in report["workloads"].items():
        e2e = entry["end_to_end"]
        cells = [f"{e2e[m]['median']:8.3f}" if m in e2e else f"{'-':>8s}"
                 for m in END_TO_END]
        layers = entry["per_layer"]
        top = ", ".join(f"{layer} {layers[layer + '.share']:.0%}"
                        for layer in entry["top_layers"])
        lines.append(f"{name:18s} {' '.join(cells)} "
                     f"{entry['fail_rate']:6.1%}  {top}")
    return "\n".join(lines)


def pin() -> int:
    """Record seed-0 and seed-1 digests for every workload."""
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for seed in (0, 1):
            rep: Rep = run_child(name, seed, False, REP_TIMEOUT_S)
            log(describe_rep(f"{name} seed {seed}", rep))
            if not rep.ok:
                return 1
            pins[name][str(seed)] = rep.data["digests"]
        if not workload.seeded and pins[name]["0"] != pins[name]["1"]:
            log(f"{name} ignores the seed but its results differ")
            return 1
    for name, control in CONTROL.items():
        if pins[name] != pins[control]:
            log(f"{name} results differ from {control}")
            return 1
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    log(f"wrote {DIGESTS}")
    return 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["diff"]:
        if len(argv) != 3:
            log("usage: python -m bench diff OLD NEW")
            return 2
        return diff.main(argv[1], argv[2])
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {SRC}: run from a repository checkout")
        return 2
    if argv[:1] == ["pin"]:
        return pin()
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: repeat for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics")
    parser.add_argument("--out", help="suite mode: BENCH file to write")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds,
                            args.trace)
    stamp = datetime.date.today().strftime("%Y%m%d")
    out = args.out or ROOT / "bench" / "results" / f"BENCH_{stamp}.json"
    return run_suite(args.seed, Path(out))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
