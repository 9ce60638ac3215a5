"""Acceptance bound on strict-mode overhead.

Strict mode re-evaluates every invariant rule after *every* simulated
event, so its cost is the product of event rate and per-check cost.
Each rule keeps that path to integer compares (the O(n) walks run only
at final checks) — the contract is that strict mode stays under 2x
the wall-clock of the default final-only mode on a drop-heavy fig-5
style point, keeping it usable as a routine debugging tool.
"""

import time

from repro.harness.runner import run_fixed_load
from repro.system.presets import gem5_default


def _timed_run(monkeypatch, mode: str) -> float:
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", mode)
    t0 = time.perf_counter()
    result = run_fixed_load(gem5_default(), "testpmd", 64, 40.0,
                            n_packets=500)
    elapsed = time.perf_counter() - t0
    assert result.sent > 0
    return elapsed


def test_strict_mode_under_2x_wall_clock(monkeypatch):
    # Warm imports/allocator before timing anything.
    _timed_run(monkeypatch, "off")
    # Three (final, strict) pairs, alternating which mode runs first so
    # host drift lands on both sides; the per-mode minimum damps
    # scheduler noise.
    times = {"final": [], "strict": []}
    for pair in range(3):
        order = ("final", "strict") if pair % 2 == 0 else ("strict", "final")
        for mode in order:
            times[mode].append(_timed_run(monkeypatch, mode))
    final_s, strict_s = min(times["final"]), min(times["strict"])
    ratio = strict_s / final_s
    assert ratio < 2.0, (
        f"strict mode cost {ratio:.2f}x final mode "
        f"({strict_s:.2f}s vs {final_s:.2f}s); strict checks must stay "
        f"cheap integer compares")
