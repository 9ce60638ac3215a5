"""Per-layer attribution of a traced workload call, measured from outside.

:class:`Tracer` wraps repro's public calls for the length of one traced
pass and restores them afterwards; nothing in ``src/`` knows it exists.

- ``cProfile`` runs over the whole call.  Shard processes fork with the
  profiler enabled and inherit it; the first wrapped call in a new
  process clears what was inherited and registers a
  ``multiprocessing.util.Finalize`` that dumps the profile and the
  process's counters when the shard exits.
- Every ``Simulation`` built during the pass gets an ``on_event`` hook,
  chained after any existing one (strict invariants), that counts events
  by the package owning the callback; a pooled event's owner is its
  pool's dispatch function.
- Phase boundaries come from the wrapped calls: building a node or rig,
  warming up, restoring a checkpoint, the measured window, and the final
  invariant check.
- ``ChannelGroup`` epochs are timed and counted per shard.

:func:`layer_self_times` and :func:`layer_calls_in` turn the merged
profile into per-package numbers.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: The ``repro`` packages, in the order metrics are reported.
LAYERS = ("sim", "nic", "mem", "cpu", "dpdk", "kernelstack", "kvstore",
          "loadgen", "net", "apps", "pci", "system", "harness", "dist")
#: Time and events with no repro owner.
PYTHON = "python"
PHASES = ("build", "warmup", "restore", "measure", "finalize")

BENCH_DIR = Path(__file__).resolve().parent

FuncKey = Tuple[str, int, str]


def layer_of_module(module: Optional[str]) -> str:
    """``repro.nic.phy`` -> ``nic``; anything outside a repro package ->
    ``python``."""
    parts = (module or "").split(".")
    if len(parts) >= 3 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return PYTHON


class _PhaseClock:
    """Wall time per phase, switched at wrapped-call boundaries.

    ``base`` is the phase the current run is in; a wrapped call that
    belongs to one phase pushes it for its own duration.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.totals = dict.fromkeys(PHASES, 0.0)
        self.base: Optional[str] = None
        self.stack: List[str] = []
        self.mark = time.perf_counter()

    def account(self) -> None:
        now = time.perf_counter()
        active = self.stack[-1] if self.stack else self.base
        if active is not None:
            self.totals[active] += now - self.mark
        self.mark = now

    def push(self, phase: str) -> None:
        self.account()
        self.stack.append(phase)

    def pop(self) -> None:
        self.account()
        self.stack.pop()

    def set_base(self, phase: Optional[str]) -> None:
        self.account()
        self.base = phase


def _empty_channel() -> Dict[str, float]:
    return {"epochs": 0, "useful_epochs": 0, "frames": 0,
            "local_run_s": 0.0, "inject_s": 0.0, "advance_s": 0.0}


class Tracer:
    """Instrument repro for one traced pass (a context manager).

    ``dump_dir`` receives one profile plus one JSON counter file per
    forked process that made a wrapped call (the shards).
    """

    def __init__(self, dump_dir) -> None:
        self.dump_dir = Path(dump_dir)
        self.profiler = cProfile.Profile()
        self.events: Dict[str, int] = {}
        self.clock = _PhaseClock()
        self.channel = _empty_channel()
        self._epoch_sent = 0
        self.warm_hits = 0
        self.warm_misses = 0
        self._pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------

    def __enter__(self) -> "Tracer":
        self._install()
        self.clock.reset()
        self.profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiler.disable()
        self.clock.account()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, wrapper_factory) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper_factory(original))

    def _patch_function(self, function, wrapper_factory) -> None:
        """Replace a module-level function in every repro module that
        bound it (``from x import f`` copies the name)."""
        wrapper = wrapper_factory(function)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, name, function))
                    setattr(module, name, wrapper)

    def _install(self) -> None:
        from repro.dist import shard  # noqa: F401  (binds build_fabric_rig)
        from repro.harness import fabric, runner, warmup_cache
        from repro.net.fabric import Fabric
        from repro.sim.channel import ChannelGroup
        from repro.sim.invariants import InvariantRegistry
        from repro.sim.simobject import Simulation
        from repro.system.node import DpdkNode

        node_cls = next(cls for cls in DpdkNode.__mro__
                        if "warmup_and_reset" in vars(cls))
        clock = self.clock

        def to_measure(_result) -> None:
            clock.set_base("measure")

        def after_build(_result) -> None:
            if clock.base is None:   # a shard: no run call around it
                clock.set_base("warmup")

        self._patch(Simulation, "__init__", self._wrap_simulation_init)
        for function in (runner.build_node, fabric.build_fabric_rig):
            self._patch_function(function, self._phase_call("build",
                                                            after_build))
        for function in (runner.run_fixed_load, runner.run_memcached,
                         fabric.run_fabric):
            self._patch_function(function, self._run_call)
        self._patch(node_cls, "warmup_and_reset",
                    self._phase_call("warmup", to_measure))
        for cls in (node_cls, Fabric):
            self._patch(cls, "restore", self._phase_call("restore",
                                                         to_measure))
            self._patch(cls, "checkpoint", self._phase_call("warmup"))
        self._patch(Fabric, "reset_measurement", self._fabric_reset)
        self._patch(InvariantRegistry, "check", self._final_check)
        self._patch(warmup_cache.WarmupCache, "get", self._warm_get)
        self._patch(warmup_cache.WarmupCache, "put",
                    self._phase_call("warmup"))
        self._patch(ChannelGroup, "begin_epoch", self._begin_epoch)
        self._patch(ChannelGroup, "finish_epoch", self._finish_epoch)
        self._patch(ChannelGroup, "advance", self._advance)

    # -- forked processes ------------------------------------------------

    def _enter_process(self) -> None:
        """On the first wrapped call in a forked process: drop what was
        inherited and arrange a dump at process exit."""
        pid = os.getpid()
        if pid == self._pid:
            return
        self._pid = pid
        self.profiler.clear()
        self.events.clear()
        self.clock.reset()
        self.channel = _empty_channel()
        self.warm_hits = self.warm_misses = 0
        mp_util.Finalize(None, self._dump_process, exitpriority=10)

    def _dump_process(self) -> None:
        self.profiler.disable()
        self.clock.account()
        stem = self.dump_dir / f"proc-{os.getpid()}"
        self.profiler.dump_stats(f"{stem}.prof")
        tmp = Path(f"{stem}.tmp")
        tmp.write_text(json.dumps(self.counters()))
        os.replace(tmp, f"{stem}.json")

    def counters(self) -> dict:
        """This process's event, phase, cache and channel counters."""
        return {"events": dict(self.events),
                "phases": dict(self.clock.totals),
                "warm_hits": self.warm_hits,
                "warm_misses": self.warm_misses,
                "channel": dict(self.channel)}

    def merged(self) -> Tuple[pstats.Stats, List[dict]]:
        """The profile of this process plus every dumped process, and
        the counters of each process (this one first)."""
        stats = pstats.Stats(self.profiler)
        counters = [self.counters()]
        for path in sorted(self.dump_dir.glob("proc-*.json")):
            counters.append(json.loads(path.read_text()))
            stats.add(str(path.with_suffix(".prof")))
        return stats, counters

    # -- wrappers ----------------------------------------------------------

    def _wrap_simulation_init(self, original):
        tracer = self

        @functools.wraps(original)
        def init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            queue = sim.events
            queue.on_event = tracer._event_hook(queue.on_event)
        return init

    def _event_hook(self, chained: Optional[Callable]) -> Callable:
        counts = self.events
        owners: Dict[object, str] = {}

        def hook(event) -> None:
            if chained is not None:
                chained(event)
            pool = getattr(event, "pool", None)
            callback = pool.dispatch if pool is not None else event.callback
            func = getattr(callback, "__func__", callback)
            key = getattr(func, "__code__", func)
            layer = owners.get(key)
            if layer is None:
                layer = owners[key] = layer_of_module(
                    getattr(func, "__module__", None))
            counts[layer] = counts.get(layer, 0) + 1
        return hook

    def _phase_call(self, phase: str,
                    after: Optional[Callable] = None):
        tracer = self

        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer._enter_process()
                tracer.clock.push(phase)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.clock.pop()
                if after is not None:
                    after(result)
                return result
            return wrapper
        return factory

    def _run_call(self, original):
        clock = self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._enter_process()
            clock.set_base("warmup")
            try:
                return original(*args, **kwargs)
            finally:
                clock.set_base(None)
        return wrapper

    def _fabric_reset(self, original):
        clock = self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._enter_process()
            result = original(*args, **kwargs)
            if clock.base == "warmup":
                clock.set_base("measure")
            return result
        return wrapper

    def _final_check(self, original):
        clock = self.clock

        @functools.wraps(original)
        def wrapper(registry, final: bool = True):
            if final:
                clock.set_base("finalize")
            return original(registry, final)
        return wrapper

    def _warm_get(self, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(cache, key):
            tracer._enter_process()
            tracer.clock.push("restore")
            try:
                document = original(cache, key)
            finally:
                tracer.clock.pop()
            if document is None:
                tracer.warm_misses += 1
            else:
                tracer.warm_hits += 1
            return document
        return wrapper

    def _begin_epoch(self, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(group, horizon):
            tracer._enter_process()
            start = time.perf_counter()
            batches = original(group, horizon)
            tally = tracer.channel
            tally["local_run_s"] += time.perf_counter() - start
            tally["epochs"] += 1
            tracer._epoch_sent = sum(len(frames)
                                     for peer in batches.values()
                                     for _name, frames in peer)
            return batches
        return wrapper

    def _finish_epoch(self, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(group, horizon, incoming):
            start = time.perf_counter()
            received = original(group, horizon, incoming)
            tally = tracer.channel
            tally["inject_s"] += time.perf_counter() - start
            tally["frames"] += received
            if received or tracer._epoch_sent:
                tally["useful_epochs"] += 1
            return received
        return wrapper

    def _advance(self, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(group, target, exchange):
            tracer._enter_process()
            start = time.perf_counter()
            try:
                return original(group, target, exchange)
            finally:
                tracer.channel["advance_s"] += time.perf_counter() - start
        return wrapper


# ----------------------------------------------------------------------
# Profile aggregation
# ----------------------------------------------------------------------

def _owner(key: FuncKey, repro_dir: str) -> str:
    """A layer name, ``bench`` for the benchmark's own code, or ``other``
    for stdlib and builtins."""
    filename = key[0]
    prefix = repro_dir.rstrip(os.sep) + os.sep
    if filename.startswith(prefix):
        package = filename[len(prefix):].split(os.sep)[0]
        return package if package in LAYERS else PYTHON
    if filename.startswith(str(BENCH_DIR) + os.sep):
        return "bench"
    return "other"


def layer_self_times(stats: Dict[FuncKey, tuple],
                     repro_dir: str) -> Dict[str, float]:
    """Self time per layer from a pstats ``stats`` table.

    repro functions count where they are defined.  Stdlib and builtin
    time is charged, call edge by call edge, to the layer that called
    it, walking up through stdlib callers; time with no repro caller,
    and the benchmark's own wrappers and hooks, goes to ``python``.
    """
    totals = dict.fromkeys(LAYERS + (PYTHON,), 0.0)
    splits: Dict[FuncKey, Dict[str, float]] = {}

    def owner_split(key: FuncKey, seen: frozenset) -> Dict[str, float]:
        """The layers a call made by ``key`` is charged to."""
        owner = _owner(key, repro_dir)
        if owner == "bench":
            return {PYTHON: 1.0}
        if owner != "other":
            return {owner: 1.0}
        if key in splits:
            return splits[key]
        callers = stats[key][4] if key in stats else {}
        if not callers or key in seen:
            return {PYTHON: 1.0}
        # Caller edges carry (ncalls, primitive calls, tottime, cumtime):
        # weigh each caller by the time it spent in this function.
        weight_total = sum(edge[2] for edge in callers.values())
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = (edge[2] / weight_total if weight_total > 0
                      else 1.0 / len(callers))
            for layer, part in owner_split(caller, seen | {key}).items():
                out[layer] = out.get(layer, 0.0) + weight * part
        splits[key] = out
        return out

    for key, (_cc, _nc, tottime, _ct, callers) in stats.items():
        owner = _owner(key, repro_dir)
        if owner != "other":
            totals[PYTHON if owner == "bench" else owner] += tottime
        elif not callers:
            totals[PYTHON] += tottime
        else:
            for caller, edge in callers.items():
                for layer, part in owner_split(caller,
                                               frozenset({key})).items():
                    totals[layer] += edge[2] * part
    return totals


def _is_public(funcname: str) -> bool:
    name = funcname.rsplit(".", 1)[-1]
    if name.startswith("__") and name.endswith("__"):
        return True
    return not name.startswith(("_", "<"))


def layer_calls_in(stats: Dict[FuncKey, tuple],
                   repro_dir: str) -> Dict[str, int]:
    """Calls into each layer's public functions from other repro
    packages."""
    calls = dict.fromkeys(LAYERS, 0)
    for key, (_cc, _nc, _tt, _ct, callers) in stats.items():
        layer = _owner(key, repro_dir)
        if layer not in calls or not _is_public(key[2]):
            continue
        for caller, edge in callers.items():
            source = _owner(caller, repro_dir)
            if source in LAYERS and source != layer:
                calls[layer] += edge[0]
    return calls


def summarize(stats: pstats.Stats, counters: List[dict],
              repro_dir: str) -> Dict[str, float]:
    """Flat per-layer metrics of one traced pass (those that need no
    untraced reference)."""
    self_times = layer_self_times(stats.stats, repro_dir)
    calls_in = layer_calls_in(stats.stats, repro_dir)
    total = sum(self_times.values()) or 1.0
    events: Dict[str, int] = {}
    for c in counters:
        for layer, count in c["events"].items():
            events[layer] = events.get(layer, 0) + count
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_times[layer]
        out[f"{layer}.share"] = self_times[layer] / total
        out[f"{layer}.calls_in"] = calls_in[layer]
        out[f"{layer}.events"] = events.get(layer, 0)
    out["python.self_s"] = self_times[PYTHON]
    out["python.share"] = self_times[PYTHON] / total
    # Processes run phases side by side (shards), so a phase lasts as
    # long as its longest process.
    for phase in PHASES:
        out[f"phase.{phase}_s"] = max(c["phases"][phase] for c in counters)
    out["sim.events_total"] = sum(events.values())
    out["harness.warm_hits"] = sum(c["warm_hits"] for c in counters)
    out["harness.warm_misses"] = sum(c["warm_misses"] for c in counters)
    shards = [c["channel"] for c in counters if c["channel"]["epochs"]]
    epochs = sum(s["epochs"] for s in shards)
    local = [s["local_run_s"] for s in shards]
    n = len(shards) or 1
    out["dist.epochs"] = max((s["epochs"] for s in shards), default=0)
    out["dist.useful_epoch_ratio"] = (
        sum(s["useful_epochs"] for s in shards) / epochs if epochs else 0.0)
    out["dist.frames_exchanged"] = sum(s["frames"] for s in shards)
    out["dist.local_run_s"] = sum(local) / n
    out["dist.inject_s"] = sum(s["inject_s"] for s in shards) / n
    out["dist.exchange_s"] = sum(
        s["advance_s"] - s["local_run_s"] - s["inject_s"]
        for s in shards) / n
    out["dist.imbalance"] = (max(local) / min(local)
                             if local and min(local) > 0 else 0.0)
    return out
