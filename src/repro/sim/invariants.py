"""Simulation invariant checking.

Components state *conservation rules* — exact structural equalities
over lifetime counters — in one method, ``invariant_failures(final)``,
which returns a message per failed rule.  A
:class:`repro.system.topology.Topology` collects that method from each
component, and its rig (:class:`repro.sim.checkpoint.Rig`) registers
one rule that runs them all with the simulation's
:class:`InvariantRegistry`, next to the simulation's own two.  The
registry runs its rules in one of three modes:

``final``  (default)
    Every rule is evaluated once when the harness finishes a run
    (:func:`repro.harness.runner.run_fixed_load` and friends call
    :meth:`InvariantRegistry.check` before returning a result), so every
    existing test and benchmark exercises the whole rule set for free.

``strict``
    Additionally, every rule is re-evaluated with ``final=False`` after
    **every simulation event** via the event queue's ``on_event`` hook.
    This localises a violation to the exact tick and event that
    introduced it, at the cost of extra wall-clock (bounded; see
    docs/tracing_and_invariants.md for measured overhead).  Each rule
    keeps that path to integer compares and saves O(n) walks, and laws
    that only hold at quiescence, for ``final``.

``off``
    Nothing runs.  Useful to confirm a failure is the checker's and not
    the model's.

The mode comes from ``REPRO_CHECK_INVARIANTS`` (``--check-invariants``
on the CLI simply sets that variable so forked sweep workers inherit
it).

A registered rule takes one argument ``final`` (False during per-event
strict checks, True at end of run) and reports trouble by returning a
string or list of strings; ``None``/empty means the invariant holds.
Rules must be *exact at any instant* — they are built on lifetime
counters that are never reset by the gem5-style warm-up stats reset, so
they cannot be confused by packets in flight across the measurement
boundary.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple

MODES = ("off", "final", "strict")

CheckFn = Callable[[bool], object]


def mode_from_env(env=None) -> str:
    """Resolve the checking mode from ``REPRO_CHECK_INVARIANTS``.

    Unset or empty means ``final``: conservation is checked at the end
    of every harness run unless explicitly disabled.
    """
    env = os.environ if env is None else env
    raw = env.get("REPRO_CHECK_INVARIANTS", "").strip().lower()
    if not raw or raw in ("1", "final", "on", "default"):
        return "final"
    if raw in ("0", "off", "none", "disabled"):
        return "off"
    if raw == "strict":
        return "strict"
    raise ValueError(
        f"REPRO_CHECK_INVARIANTS={raw!r}: expected one of {MODES}")


class InvariantViolation(AssertionError):
    """One or more registered invariants do not hold.

    Subclasses ``AssertionError`` so a violation fails a pytest test
    naturally even when nothing anticipates it.
    """

    def __init__(self, failures: Sequence[str], tick: Optional[int] = None,
                 phase: str = "final"):
        self.failures = list(failures)
        self.tick = tick
        self.phase = phase
        where = f" at tick {tick}" if tick is not None else ""
        detail = "\n  ".join(self.failures)
        super().__init__(
            f"{len(self.failures)} invariant violation(s) "
            f"({phase} check{where}):\n  {detail}")


class InvariantRegistry:
    """Named conservation rules, checked per-event and/or at end of run."""

    def __init__(self, event_queue=None, mode: Optional[str] = None):
        if mode is None:
            mode = mode_from_env()
        if mode not in MODES:
            raise ValueError(f"invariant mode {mode!r}: expected {MODES}")
        self.mode = mode
        self._event_queue = event_queue
        self._checks: List[Tuple[str, CheckFn]] = []
        self.events_checked = 0
        self.final_checks_run = 0
        if mode == "strict" and event_queue is not None:
            event_queue.on_event = self._on_event

    def register(self, name: str, check: CheckFn) -> None:
        """Add a rule.  Under ``strict`` it runs after every simulation
        event with ``final=False``, so it keeps that path to integer
        compares and does any O(n) work only when ``final`` is true."""
        if name in self.names:
            raise ValueError(f"invariant {name!r} registered twice")
        self._checks.append((name, check))

    @property
    def names(self) -> List[str]:
        return [name for name, _ in self._checks]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @staticmethod
    def _collect(name: str, result) -> List[str]:
        if not result:
            return []
        if isinstance(result, str):
            return [f"{name}: {result}"]
        return [f"{name}: {item}" for item in result]

    def failures(self, final: bool = True) -> List[str]:
        """Evaluate every rule; returns failure messages (empty == OK)."""
        out: List[str] = []
        for name, check in self._checks:
            out.extend(self._collect(name, check(final)))
        return out

    def check(self, final: bool = True) -> None:
        """Evaluate every rule, raising :class:`InvariantViolation` on
        any failure.  No-op when the mode is ``off``."""
        if self.mode == "off":
            return
        self.final_checks_run += 1
        failed = self.failures(final)
        if failed:
            tick = (self._event_queue.now
                    if self._event_queue is not None else None)
            raise InvariantViolation(failed, tick=tick, phase="final")

    def _on_event(self, event) -> None:
        """Event-queue hook: every rule after every event callback."""
        self.events_checked += 1
        for name, check in self._checks:
            result = check(False)
            if result:
                raise InvariantViolation(
                    self._collect(name, result),
                    tick=self._event_queue.now, phase="strict")
