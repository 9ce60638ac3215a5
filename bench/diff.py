"""``python -m bench diff OLD NEW``: compare two BENCH files.

Each end-to-end metric on each workload is classified against its bound
(the share of the old median by which it may worsen):

- ``unresolved`` when either file's spread between repetitions, the
  interquartile range over the median, exceeds the bound, unless every
  new sample beats every old one (then ``improved``);
- otherwise ``regressed`` / ``improved`` when the medians differ by more
  than the bound, else ``unchanged``.

A higher ``fail_rate`` is a regression.  Digests and the exact counts
(events, epochs, frames exchanged) are reported but do not decide the
exit code.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import List, Sequence, Tuple

from bench.suite import END_TO_END

#: Per-layer counts that must repeat exactly on the same commit.
EXACT_COUNTS = ("sim.events_total", "dist.epochs", "dist.frames_exchanged")


def spread(samples: Sequence[float]) -> float:
    """Interquartile range over the median."""
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    middle = statistics.median(samples)
    return (q3 - q1) / middle if middle else 0.0


def classify(old: dict, new: dict, bound: float) -> str:
    """Classify one lower-is-better metric given two summaries with
    ``median`` and ``samples``."""
    if max(spread(old["samples"]), spread(new["samples"])) > bound:
        if max(new["samples"]) < min(old["samples"]):
            return "improved"
        return "unresolved"
    change = (new["median"] - old["median"]) / old["median"]
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "unchanged"


def compare(old: dict, new: dict) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    lines: List[str] = []
    regressed = False
    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        before, after = old["workloads"][name], new["workloads"][name]
        for metric, (unit, bound) in END_TO_END.items():
            if metric not in before["end_to_end"] or \
                    metric not in after["end_to_end"]:
                verdict = "unresolved"
            else:
                a = before["end_to_end"][metric]
                b = after["end_to_end"][metric]
                verdict = classify(a, b, bound)
                verdict += (f"  {a['median']:.4g} -> {b['median']:.4g} "
                            f"{unit} (bound {bound:.0%})")
            regressed |= verdict.startswith("regressed")
            lines.append(f"{name:18s} {metric:12s} {verdict}")
        if after["fail_rate"] > before["fail_rate"]:
            regressed = True
            lines.append(f"{name:18s} {'fail_rate':12s} regressed  "
                         f"{before['fail_rate']:.4g} -> "
                         f"{after['fail_rate']:.4g}")
        else:
            lines.append(f"{name:18s} {'fail_rate':12s} unchanged  "
                         f"{after['fail_rate']:.4g}")
        same = before["digests"] == after["digests"]
        lines.append(f"{name:18s} {'digests':12s} "
                     f"{'identical' if same else 'DIFFERENT'}")
        layers_a = before.get("per_layer", {})
        layers_b = after.get("per_layer", {})
        counts = [m for m in layers_a if m.endswith(".events")]
        counts += list(EXACT_COUNTS)
        moved = [m for m in counts if layers_a.get(m) != layers_b.get(m)]
        verdict = "DIFFERENT: " + ", ".join(moved) if moved else "identical"
        lines.append(f"{name:18s} {'counts':12s} {verdict}")
    return lines, regressed


def main(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    lines, regressed = compare(old, new)
    print("\n".join(lines))
    return 1 if regressed else 0
