"""Fixtures shared across the tier-1 suite."""

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.harness import parallel
from repro.sim.invariants import InvariantViolation


def check_components(sim, *components) -> None:
    """Register the rules of components built outside a rig with
    ``sim``, one rule under each component's name, as a rig registers
    its topology's: strict mode then re-checks them after every event,
    and ``sim.invariants.check(final=True)`` checks them at the end."""
    for component in components:
        sim.invariants.register(component.name,
                                component.invariant_failures)


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _poison_raise(point, warmup_cache):
    raise RuntimeError("poisoned sweep point: injected exception")


def _poison_hang_once(point, warmup_cache):
    flag = Path(point.app_options["flag"])
    if not flag.exists():
        flag.write_text("first attempt")
        time.sleep(3600.0)
    return {"ok": True, "via": "retry", "seed": point.seed}


def _poison_crash(point, warmup_cache):
    if _in_worker():
        os._exit(17)
    raise RuntimeError("poisoned sweep point: crashes everywhere")


def _poison_child_crash(point, warmup_cache):
    if _in_worker():
        os._exit(17)
    return {"ok": True, "via": "serial-fallback", "seed": point.seed}


def _poison_logged_sleep(point, warmup_cache):
    with open(point.app_options["log"], "a") as log:
        log.write(f"{os.getpid()}\n")
    time.sleep(point.app_options["sleep"])
    return {"ok": True, "via": "logged", "seed": point.seed}


def _poison_crash_after(point, warmup_cache):
    after = Path(point.app_options["after"])
    deadline = time.monotonic() + 30.0
    while not after.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return _poison_child_crash(point, warmup_cache)


def _poison_invariant(point, warmup_cache):
    raise InvariantViolation(
        ["poisoned: injected conservation failure"], tick=42)


POISON_KINDS = {
    "_poison_raise": _poison_raise,
    "_poison_hang": lambda point, warmup_cache: time.sleep(3600.0),
    "_poison_hang_once": _poison_hang_once,
    "_poison_crash": _poison_crash,
    "_poison_child_crash": _poison_child_crash,
    "_poison_logged_sleep": _poison_logged_sleep,
    "_poison_crash_after": _poison_crash_after,
    "_poison_invariant": _poison_invariant,
}


@pytest.fixture
def poison_kinds(monkeypatch):
    """Install the ``_poison_*`` sweep point kinds, which inject worker
    misbehaviour without running a simulation (each is described in
    ``test_parallel_failures.py``; ``_poison_invariant`` raises an
    invariant verdict).  Like every kind's handler, each is called with
    the point and the executor's warm-up cache.  The executor forks its
    children after this fixture runs, so they inherit the kinds too."""
    for kind, handler in POISON_KINDS.items():
        monkeypatch.setitem(parallel._KIND_HANDLERS, kind, handler)
