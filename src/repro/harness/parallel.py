"""Parallel sweep execution with deterministic replay.

Every figure in the paper is a sweep of *independent* fixed-rate
simulations (app x packet size x offered load x configuration), yet the
harness historically ran each point serially in one process.  This module
fans sweep points out across worker processes — the dist-gem5 observation
(paper §II.B) that independent simulation instances parallelise trivially
— while keeping the property the harness is built on: bit-identical
results for identical inputs.

Three pieces:

:class:`SweepPoint`
    One simulation invocation, described by plain data: a kind
    (``fixed_load`` / ``memcached`` / ``msb``), a :class:`SystemConfig`,
    the application, the load, and a base seed.  The point's *effective*
    seed is derived from the base seed and a canonical label through
    :meth:`repro.sim.rng.DeterministicRng.fork`, so every point owns an
    independent random stream and adding/removing points never perturbs
    the streams of the others (positional ``seed + i`` schemes do).

:class:`ResultCache`
    An on-disk result store keyed by a stable SHA-256 digest of
    ``(code fingerprint, kind, SystemConfig, app, load, n_packets,
    app_options, seed)``.  Re-running an unchanged point is free; any
    edit to the ``repro`` sources misses; corrupted entries are
    detected, discarded, and recomputed.

:class:`SweepExecutor`
    The scheduler.  ``jobs=1`` executes in-process (the reference serial
    path); ``jobs>1`` forks one child process per point, at most ``jobs``
    alive at once.  Children fork after the parent has prewarmed any
    shared warm-up checkpoints, so each inherits the parsed snapshots
    through copy-on-write memory.  Each child sends its one outcome over
    its own pipe, so a failure costs only its own point: a pipe that
    closes with no outcome is that point's crash, and an expired
    per-point deadline terminates that child alone.  Crashed and
    timed-out points are retried; once retries are exhausted a crashed
    point falls back to in-process serial execution, and a timed-out one
    raises :class:`SweepTimeoutError` — a hanging simulation would hang
    the serial fallback too.

Determinism guarantee: for the same list of points, the executor returns
the same results whether ``jobs`` is 1 or N, whether results came from
workers or the cache, and across runs — each simulation is hermetic in
``(config, effective seed)``.

Point kinds dispatch through ``_KIND_HANDLERS``; the failure-path tests
install their own kinds there before the executor forks its children.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import shutil
import tempfile
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness.fabric import (
    FabricRunResult,
    fabric_warm_start,
    run_fabric,
)
from repro.harness.msb import MsbResult, _saturation_warmup_us, find_msb
from repro.harness.runner import (
    FixedLoadResult,
    MemcachedRunResult,
    fixed_load_warm_start,
    memcached_warm_start,
    run_fixed_load,
    run_memcached,
)
from repro.harness.warmup_cache import (
    WarmStart,
    WarmupCache,
    code_fingerprint,
    prewarm,
)
from repro.sim.checkpoint import write_atomic
from repro.sim.invariants import InvariantViolation
from repro.sim.rng import DeterministicRng
from repro.system.config import SystemConfig

KIND_FIXED_LOAD = "fixed_load"
KIND_MEMCACHED = "memcached"
KIND_MSB = "msb"
KIND_FABRIC = "fabric"


# ----------------------------------------------------------------------
# Sweep points
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation invocation.

    ``load`` is the offered rate: Gbps for ``fixed_load``, requests/s for
    ``memcached``, and the search ceiling (max Gbps) for ``msb``.
    ``n_packets`` doubles as ``n_requests`` for memcached points.
    """

    kind: str
    config: Optional[SystemConfig] = None
    app: str = ""
    packet_size: int = 0
    load: float = 0.0
    n_packets: int = 0
    app_options: Optional[Dict[str, Any]] = None
    seed: int = 0

    @property
    def rng_label(self) -> str:
        """The canonical per-point RNG label (stable across grid edits).

        The offered ``load`` is deliberately excluded: points that differ
        only in load share one RNG stream, so a load sweep over one
        configuration passes through identical warm-up state and can
        share a single warm-up checkpoint (see
        :mod:`repro.harness.warmup_cache`).
        """
        opts = json.dumps(self.app_options or {}, sort_keys=True)
        return (f"{self.kind}:{self.app}:{self.packet_size}:"
                f"{self.n_packets}:{opts}")

    @property
    def effective_seed(self) -> int:
        """The seed the simulation actually runs with: an independent
        stream forked from the base seed by the point's label."""
        return DeterministicRng(self.seed).fork(self.rng_label).seed

    def describe(self) -> str:
        """Short human-readable label for logs and cache metadata."""
        cfg = self.config.label if self.config is not None else "-"
        return (f"{self.kind} {self.app or '-'} {self.packet_size}B "
                f"@ {self.load:g} on {cfg} (seed {self.seed})")


def fixed_load_point(config: SystemConfig, app: str, packet_size: int,
                     gbps: float, n_packets: int = 2000,
                     app_options: Optional[dict] = None,
                     seed: int = 0) -> SweepPoint:
    """A :func:`repro.harness.runner.run_fixed_load` invocation."""
    return SweepPoint(kind=KIND_FIXED_LOAD, config=config, app=app,
                      packet_size=packet_size, load=float(gbps),
                      n_packets=n_packets, app_options=app_options,
                      seed=seed)


def memcached_point(config: SystemConfig, kernel: bool, rate_rps: float,
                    n_requests: int = 2500, seed: int = 0) -> SweepPoint:
    """A :func:`repro.harness.runner.run_memcached` invocation."""
    app = "memcached_kernel" if kernel else "memcached_dpdk"
    return SweepPoint(kind=KIND_MEMCACHED, config=config, app=app,
                      load=float(rate_rps), n_packets=n_requests, seed=seed)


def msb_point(config: SystemConfig, app: str, packet_size: int,
              max_gbps: float = 70.0, n_packets: int = 2500,
              app_options: Optional[dict] = None,
              seed: int = 0) -> SweepPoint:
    """A whole :func:`repro.harness.msb.find_msb` search as one point."""
    return SweepPoint(kind=KIND_MSB, config=config, app=app,
                      packet_size=packet_size, load=float(max_gbps),
                      n_packets=n_packets, app_options=app_options,
                      seed=seed)


def fabric_point(config: SystemConfig, preset: str, stack: str,
                 pattern: str = "uniform", load: float = 0.3,
                 n_flows: int = 200, size_cdf: str = "smoke",
                 seed: int = 0) -> SweepPoint:
    """A :func:`repro.harness.fabric.run_fabric` invocation.

    ``app`` carries ``preset:stack``; the measured traffic pattern and
    flow-size CDF travel in ``app_options``.  ``load`` is the offered
    load fraction of host link bandwidth, ``n_packets`` the flow count.
    Points differing only in ``load`` share one RNG stream (and hence
    one warm-up checkpoint) exactly like fixed-load points.
    """
    return SweepPoint(kind=KIND_FABRIC, config=config,
                      app=f"{preset}:{stack}", load=float(load),
                      n_packets=n_flows,
                      app_options={"pattern": pattern,
                                   "size_cdf": size_cdf},
                      seed=seed)


# ----------------------------------------------------------------------
# Point execution and result (de)serialisation
# ----------------------------------------------------------------------

def _run_fixed(point: SweepPoint, warmup_cache: Optional[WarmupCache]):
    return run_fixed_load(point.config, point.app, point.packet_size,
                          point.load, n_packets=point.n_packets,
                          app_options=point.app_options,
                          seed=point.effective_seed,
                          warmup_cache=warmup_cache)


def _run_memcached(point: SweepPoint,
                   warmup_cache: Optional[WarmupCache]):
    kernel = point.app == "memcached_kernel"
    return run_memcached(point.config, kernel, point.load,
                         n_requests=point.n_packets,
                         seed=point.effective_seed,
                         warmup_cache=warmup_cache)


def _run_msb(point: SweepPoint, warmup_cache: Optional[WarmupCache]):
    return find_msb(point.config, point.app, point.packet_size,
                    max_gbps=point.load, n_packets=point.n_packets,
                    app_options=point.app_options,
                    seed=point.effective_seed, warmup_cache=warmup_cache)


def _run_fabric(point: SweepPoint, warmup_cache: Optional[WarmupCache]):
    preset, stack = point.app.rsplit(":", 1)
    opts = point.app_options or {}
    return run_fabric(point.config, preset, stack,
                      pattern=opts.get("pattern", "uniform"),
                      load=point.load, n_flows=point.n_packets,
                      size_cdf=opts.get("size_cdf", "smoke"),
                      seed=point.effective_seed, warmup_cache=warmup_cache)


#: Each kind's runner, called as ``handler(point, warmup_cache)``.
_KIND_HANDLERS: Dict[str, Callable[..., Any]] = {
    KIND_FIXED_LOAD: _run_fixed,
    KIND_MEMCACHED: _run_memcached,
    KIND_MSB: _run_msb,
    KIND_FABRIC: _run_fabric,
}


def _fixed_warm_start(point: SweepPoint,
                      warmup_us: Optional[float] = None) -> WarmStart:
    return fixed_load_warm_start(point.config, point.app, point.packet_size,
                                 point.app_options, warmup_us,
                                 point.effective_seed)


#: Each kind's warm-up, as the very :class:`WarmStart` its runner uses, so
#: a prewarm stores exactly the key the run looks up (find_msb's first
#: probe warms up for the saturation window).
_WARM_STARTS: Dict[str, Callable[[SweepPoint], WarmStart]] = {
    KIND_FIXED_LOAD: _fixed_warm_start,
    KIND_MSB: lambda p: _fixed_warm_start(p, _saturation_warmup_us(p.config)),
    KIND_MEMCACHED: lambda p: memcached_warm_start(
        p.config, p.app == "memcached_kernel", p.load, p.n_packets,
        seed=p.effective_seed),
    KIND_FABRIC: lambda p: fabric_warm_start(
        p.config, *p.app.rsplit(":", 1), seed=p.effective_seed),
}


def execute_point(point: SweepPoint,
                  warmup_cache: Optional[WarmupCache] = None):
    """Run one sweep point in the current process, warming up through
    ``warmup_cache`` when one is given, and return the result object
    (:class:`FixedLoadResult` / :class:`MemcachedRunResult` /
    :class:`MsbResult` / :class:`FabricRunResult`)."""
    handler = _KIND_HANDLERS.get(point.kind)
    if handler is None:
        raise ValueError(f"unknown sweep point kind {point.kind!r}; "
                         f"expected one of {sorted(_KIND_HANDLERS)}")
    return handler(point, warmup_cache)


_RESULT_TYPES = {
    "FixedLoadResult": FixedLoadResult,
    "MemcachedRunResult": MemcachedRunResult,
    "MsbResult": MsbResult,
    "FabricRunResult": FabricRunResult,
}


def encode_result(result: Any) -> dict:
    """A JSON/pickle-safe payload for a point's result."""
    if isinstance(result, dict):
        return {"result_type": "dict", "data": result}
    name = type(result).__name__
    if name not in _RESULT_TYPES:
        raise TypeError(f"cannot encode result of type {name}")
    return {"result_type": name, "data": asdict(result)}


def decode_result(payload: dict) -> Any:
    """Reconstruct the result object from :func:`encode_result` output.

    Normalises JSON round-trip artefacts (tuples decoded as lists) so a
    cached result compares equal to a freshly computed one.
    """
    name = payload["result_type"]
    data = payload["data"]
    if name == "dict":
        return data
    cls = _RESULT_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown result type {name!r}")
    # A result rebuilds from its fields; MsbResult's own from_dict also
    # turns its curve points back into tuples.
    return cls.from_dict(data) if hasattr(cls, "from_dict") else cls(**data)


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------

def cache_key(point: SweepPoint) -> str:
    """Stable digest of everything the simulation's outcome depends on."""
    payload = {
        "code_fingerprint": code_fingerprint(),
        "kind": point.kind,
        "config": (point.config.canonical_dict()
                   if point.config is not None else None),
        "app": point.app,
        "packet_size": point.packet_size,
        "load": point.load,
        "n_packets": point.n_packets,
        "app_options": point.app_options or {},
        "seed": point.seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """One JSON file per completed sweep point, named by its cache key.

    Any unreadable, mismatched, or undecodable entry counts as corrupt:
    it is deleted and the point recomputed — a damaged cache can slow a
    sweep down but never change its results.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.corrupt_entries = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored result payload, or None on miss/corruption."""
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            blob = json.loads(path.read_text())
            if (blob.get("code_fingerprint") != code_fingerprint()
                    or blob.get("key") != key):
                raise ValueError("cache entry metadata mismatch")
            payload = blob["result"]
            decode_result(payload)    # validate before trusting
            return payload
        except Exception:
            self.corrupt_entries += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, payload: dict, point: SweepPoint) -> None:
        """Atomically store one result (:func:`write_atomic`: writers of
        the same key never share a temp file)."""
        blob = {"code_fingerprint": code_fingerprint(), "key": key,
                "point": point.describe(), "result": payload}
        write_atomic(str(self.path_for(key)), json.dumps(blob, sort_keys=True))


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------

class SweepPointError(RuntimeError):
    """A sweep point failed permanently (its child crashed and the
    serial fallback failed too, or the point raised)."""

    def __init__(self, point: SweepPoint, detail: str) -> None:
        super().__init__(f"sweep point failed: {point.describe()}\n{detail}")
        self.point = point
        self.detail = detail


class SweepTimeoutError(SweepPointError):
    """A sweep point exceeded its per-attempt timeout on every attempt."""


class SweepInvariantError(SweepPointError):
    """A point's simulation violated a registered invariant.

    Distinct from :class:`SweepPointError` so sweep drivers can tell "the
    simulation produced inconsistent state" (a model bug at exactly this
    configuration/load) apart from infrastructure failures — and so the
    offending point's label travels with the verdict instead of a generic
    child traceback."""


@dataclass
class ExecutorStats:
    """Counters for one executor's lifetime, exposed for tests/reports."""

    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt: int = 0
    executed: int = 0          # simulations that actually ran to completion
    deduped: int = 0           # points satisfied by an identical twin
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    serial_fallbacks: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return dict(asdict(self))


def _child_main(conn, point: SweepPoint,
                warmup_cache: Optional[WarmupCache]) -> None:
    """One forked child: run one point and send its one outcome.

    The outcome is ``("ok", payload)``, ``("invariant", verdict)`` or
    ``("error", traceback)``.  A child that dies before sending leaves
    the parent an empty, closed pipe: that is the point's crash.
    """
    try:
        outcome = ("ok", encode_result(execute_point(point, warmup_cache)))
    except InvariantViolation as exc:
        # The simulation itself is inconsistent: carry the verdict (not
        # a bare traceback) so the driver can name the offending point.
        outcome = ("invariant", str(exc))
    except BaseException as exc:   # report, don't kill the sweep
        outcome = ("error", f"{type(exc).__name__}: {exc}\n"
                            f"{traceback.format_exc()}")
    conn.send(outcome)
    conn.close()


def prewarm_point(point: SweepPoint, cache: WarmupCache) -> bool:
    """Store the warm-up snapshot of one sweep point in ``cache``
    without running its measured phase.  Returns True when a warm-up was
    simulated and stored; False on a cache hit or a kind with no
    warm-up."""
    make = _WARM_STARTS.get(point.kind)
    return make is not None and prewarm(make(point), cache)


def _default_context():
    # fork is cheap and inherits imported modules and test-installed
    # kinds; fall back to the platform default (spawn on macOS/Windows)
    # when unavailable.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class SweepExecutor:
    """Runs lists of :class:`SweepPoint` with caching and fan-out.

    Parameters
    ----------
    jobs:
        Most child processes alive at once.  ``1`` (default) executes
        in-process — the reference serial path the parallel results must
        match.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables it.
    timeout_s:
        Per-attempt wall-clock budget for one point in a child.
    max_retries:
        Extra attempts after the first for a crashed or timed-out point.
    warmup_cache_dir:
        Directory for the shared warm-up checkpoint cache (see
        :mod:`repro.harness.warmup_cache`).  The executor holds one
        :class:`WarmupCache` on it and passes it to every point's run,
        in process or in a forked child (which inherits the object).
        ``None`` runs without one — except with ``jobs > 1``, where the
        executor provisions a temporary warm-up cache for each
        :meth:`run`: warm-up sharing is what lets children fork after
        one prewarmed checkpoint instead of each re-simulating it, so
        the parallel mode carries its own.  The temporary directory is
        deleted when :meth:`run` returns; restored warm-ups are
        bit-identical to simulated ones, so results are unaffected.
    """

    def __init__(self, jobs: int = 1, cache_dir=None,
                 timeout_s: float = 600.0, max_retries: int = 1,
                 warmup_cache_dir=None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = int(jobs)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.timeout_s = float(timeout_s)
        self.max_retries = int(max_retries)
        self.warmup_cache = (WarmupCache(warmup_cache_dir)
                             if warmup_cache_dir else None)
        self.stats = ExecutorStats()

    # -- public API ----------------------------------------------------

    def run(self, points: Sequence[SweepPoint]) -> List[Any]:
        """Execute all points, in order, returning one result each.

        Identical points (same cache key, hence provably the same
        deterministic result) are computed once and shared.
        """
        if self.warmup_cache is not None or self.jobs == 1:
            return self._run(points, self.warmup_cache)
        # Parallel mode carries its own warm-up sharing: children fork
        # after the parent prewarms one checkpoint per shared warm-up
        # state (see _prewarm) instead of each child re-simulating it.
        root = tempfile.mkdtemp(prefix="repro-warm-")
        try:
            return self._run(points, WarmupCache(root))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _run(self, points: Sequence[SweepPoint],
             warmup_cache: Optional[WarmupCache]) -> List[Any]:
        t0 = time.monotonic()
        points = list(points)
        results: List[Optional[dict]] = [None] * len(points)
        keys = [cache_key(p) for p in points]

        # Cache hits first.
        pending: List[int] = []
        for i, key in enumerate(keys):
            payload = self.cache.get(key) if self.cache else None
            if payload is not None:
                self.stats.cache_hits += 1
                results[i] = payload
            else:
                if self.cache:
                    self.stats.cache_misses += 1
                pending.append(i)

        # Dedupe identical pending points: one leader per key.
        leaders: Dict[str, int] = {}
        followers: Dict[int, int] = {}
        unique: List[int] = []
        for i in pending:
            leader = leaders.setdefault(keys[i], i)
            if leader == i:
                unique.append(i)
            else:
                followers[i] = leader
                self.stats.deduped += 1

        if unique:
            if self.jobs == 1 or len(unique) == 1:
                executed = {i: self._execute_in_process(points[i],
                                                        warmup_cache)
                            for i in unique}
            else:
                executed = self._run_parallel(unique, points, warmup_cache)
            for i, payload in executed.items():
                results[i] = payload
                self.stats.executed += 1
                if self.cache:
                    self.cache.put(keys[i], payload, points[i])
        for i, leader in followers.items():
            results[i] = results[leader]

        if self.cache:
            self.stats.cache_corrupt = self.cache.corrupt_entries
        self.stats.wall_s += time.monotonic() - t0
        return [decode_result(payload) for payload in results]

    # -- serial path ---------------------------------------------------

    def _execute_in_process(self, point: SweepPoint,
                            warmup_cache: Optional[WarmupCache]) -> dict:
        try:
            return encode_result(execute_point(point, warmup_cache))
        except InvariantViolation as exc:
            raise SweepInvariantError(point, str(exc)) from exc
        except Exception as exc:
            raise SweepPointError(
                point, f"{type(exc).__name__}: {exc}") from exc

    # -- parallel path -------------------------------------------------

    def _prewarm(self, indices: List[int], points: List[SweepPoint],
                 cache: WarmupCache) -> None:
        """Simulate shared warm-up snapshots in the parent, pre-fork.

        Pending points are grouped by the warm-up key their runs look
        up.  Only keys that more than one point restores are worth
        producing here (a one-off warm-up costs the same either way,
        and in a child it runs in parallel).  For shared keys the parent
        pays once and every forked child inherits the parsed snapshot
        through copy-on-write memory — without this, each child
        re-simulates or re-parses the same warm-up.  Failures are left
        for the children to surface with a proper point-naming verdict.
        """
        specs: Dict[str, List[WarmStart]] = {}
        for i in indices:
            try:   # a kind with no warm-up, or a point its run refuses
                spec = _WARM_STARTS[points[i].kind](points[i])
            except Exception:
                continue
            specs.setdefault(spec.key, []).append(spec)
        for same in specs.values():
            if len(same) > 1:
                try:
                    prewarm(same[0], cache)
                except Exception:
                    pass

    def _run_parallel(self, indices: List[int], points: List[SweepPoint],
                      warmup_cache: WarmupCache) -> Dict[int, dict]:
        """One forked child per point, at most ``jobs`` alive at once,
        each forked after :meth:`_prewarm` (see the module docstring)."""
        # Imported here so that only parallel runs pay for the import.
        from multiprocessing.connection import wait

        self._prewarm(indices, points, warmup_cache)
        ctx = _default_context()
        out: Dict[int, dict] = {}
        work = deque((i, 0) for i in indices)           # (index, attempt)
        # receive end -> (child, index, attempt, deadline)
        running: Dict[Any, tuple] = {}
        try:
            while work or running:
                while work and len(running) < self.jobs:
                    index, attempt = work.popleft()
                    receiver, sender = ctx.Pipe(duplex=False)
                    child = ctx.Process(target=_child_main,
                                        args=(sender, points[index],
                                              warmup_cache),
                                        daemon=True)
                    child.start()
                    # Only the child holds the send end now, so its exit
                    # closes the pipe: that EOF is how a crash shows.
                    sender.close()
                    running[receiver] = (child, index, attempt,
                                         time.monotonic() + self.timeout_s)

                next_deadline = min(entry[3] for entry in running.values())
                ready = wait(list(running), timeout=max(
                    0.0, next_deadline - time.monotonic()))
                for receiver in ready:
                    child, index, attempt, _deadline = running.pop(receiver)
                    try:
                        status, data = receiver.recv()
                    except EOFError:
                        status, data = "crash", None
                    finally:
                        receiver.close()
                        child.join()
                    if status == "ok":
                        out[index] = data
                    elif status == "invariant":
                        raise SweepInvariantError(points[index], data)
                    elif status == "error":
                        raise SweepPointError(points[index], data)
                    else:
                        self.stats.crashes += 1
                        if attempt < self.max_retries:
                            self.stats.retries += 1
                            work.append((index, attempt + 1))
                        else:
                            # Graceful fallback: the child environment
                            # may be the problem; run the point here.
                            self.stats.serial_fallbacks += 1
                            out[index] = self._execute_in_process(
                                points[index], warmup_cache)

                now = time.monotonic()
                for receiver, entry in list(running.items()):
                    child, index, attempt, deadline = entry
                    if now < deadline or receiver.poll():
                        continue   # an outcome already sent is never charged
                    del running[receiver]
                    child.terminate()
                    child.join()
                    receiver.close()
                    self.stats.timeouts += 1
                    if attempt >= self.max_retries:
                        raise SweepTimeoutError(
                            points[index],
                            f"no result within {self.timeout_s:.1f}s "
                            f"after {attempt + 1} attempt(s)")
                    self.stats.retries += 1
                    work.append((index, attempt + 1))
        finally:
            for child, *_rest in running.values():
                child.terminate()
            for receiver, (child, *_rest) in running.items():
                child.join()
                receiver.close()
        return out
