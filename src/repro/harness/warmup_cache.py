"""On-disk warm-up checkpoint cache for sweeps.

The paper's methodology warms every simulation up under load before the
measured window (§VI.A) — and a sweep re-pays that warm-up at every
point.  But the harness warms up at a *canonical, load-independent* rate
and drains to quiescence before resetting statistics, so every point of
a single-configuration load sweep passes through byte-identical post-
warm-up machine state.  This cache stores that state once, as a sealed
:mod:`repro.sim.checkpoint` document, and every subsequent point
restores it instead of re-simulating the warm-up.

Keying: a SHA-256 digest over everything the post-warm-up state depends
on — the result-cache schema version, the checkpoint format, the full
canonical :class:`~repro.system.config.SystemConfig`, the application
and its options, the packet size, the :class:`~repro.system.node.WarmupPlan`,
the *effective* seed, and the tracer configuration.  The offered load is
deliberately absent: that is the whole point.

Failure policy mirrors :class:`repro.harness.parallel.ResultCache`: any
unreadable, version-mismatched, or digest-mismatched entry counts as
corrupt, is deleted, and the warm-up is re-simulated — a damaged cache
can slow a sweep down but never change its results.  Writes are atomic
(temp file + ``os.replace``), so sweep workers racing to produce the
same snapshot never leave a torn file.

The warm-start protocol is written once, here: each kind of run states
its build, key, warm-up and checkpoint metadata as one
:class:`WarmStart`, which its runner hands to :func:`warm_start` and the
sweep executor to :func:`prewarm` — so a prewarm stores exactly the
snapshot the run looks up.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.system.config import SystemConfig
from repro.system.node import WarmupPlan

#: Environment variable through which sweep workers (and the CLI's
#: ``--warmup-cache`` flag) point runs at a shared cache directory.
WARMUP_CACHE_ENV = "REPRO_WARMUP_CACHE"

#: Version of the warm-up *keying* scheme (what state a key promises to
#: describe).  Bump together with methodology changes so stale snapshots
#: miss instead of silently seeding a run with different machine state.
WARMUP_KEY_VERSION = 1


def warmup_key(config: SystemConfig, app: str, packet_size: int,
               app_options: Optional[Dict[str, Any]], plan: WarmupPlan,
               seed: int, tracer_signature: Dict[str, Any]) -> str:
    """Stable digest of everything the post-warm-up state depends on."""
    options = {k: v for k, v in (app_options or {}).items()
               if k != "store"}   # the store is node-internal state
    payload = {
        "key_version": WARMUP_KEY_VERSION,
        "checkpoint_format": CHECKPOINT_FORMAT,
        "config": config.canonical_dict(),
        "app": app,
        "packet_size": packet_size,
        "app_options": options,
        "plan": asdict(plan),
        "seed": seed,
        "tracer": tracer_signature,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class WarmupCache:
    """One sealed checkpoint file per warm-up state, named by its key.

    Entries are additionally memoized in memory: within one process a
    warm-up snapshot is parsed (and digest-verified) from disk at most
    once.  Only a *validated disk read* populates the memo — a plain
    :meth:`put` does not — so corruption injected into the file before
    the first read is still detected.  The parallel sweep executor
    leans on the memo: the parent *prewarms* it before forking one
    child per point, so every child inherits the already-loaded
    snapshots through copy-on-write fork memory instead of re-reading
    (and re-verifying) them.

    Checkpoint documents are treated as immutable once sealed; restore
    paths only read them, so sharing one dict across runs is safe.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.corrupt_entries = 0
        self._memo: Dict[str, dict] = {}

    def path_for(self, key: str) -> Path:
        return self.root / f"warmup-{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored checkpoint document, or None on miss.

        A corrupt entry (unreadable file, schema drift, digest mismatch)
        is deleted and reported as a miss, so the caller falls back to
        simulating the warm-up and then overwrites the entry.
        """
        memoized = self._memo.get(key)
        if memoized is not None:
            self.hits += 1
            return memoized
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            document = load_checkpoint(str(path))
        except CheckpointError:
            self.corrupt_entries += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        self._memo[key] = document
        return document

    def put(self, key: str, document: dict) -> None:
        """Atomically store one sealed checkpoint.

        Deliberately does *not* memoize: the memo only ever holds
        copies that passed the on-disk digest check, so tests (and
        operators) that corrupt an entry behind the cache's back still
        see the corruption detected on the next read."""
        save_checkpoint(document, str(self.path_for(key)))
        self.saves += 1

    def discard(self, key: str) -> None:
        """Drop an entry that failed to restore (schema drift survives
        the digest check when the writer was a different code version)."""
        self._memo.pop(key, None)
        try:
            self.path_for(key).unlink()
        except OSError:
            pass


#: Per-directory singletons handed out by :func:`warmup_cache_from_env`,
#: so repeated harness calls in one process (and forked sweep workers)
#: share a single in-memory memo per cache directory.
_caches_by_root: Dict[str, WarmupCache] = {}


def drop_warmup_cache(root) -> None:
    """Evict the per-directory singleton (and its memo) for ``root``.

    Callers that provision ephemeral cache directories use this to free
    the memoized snapshots when the directory is deleted."""
    _caches_by_root.pop(str(Path(root).resolve()), None)


def warmup_cache_from_env() -> Optional[WarmupCache]:
    """The cache named by ``REPRO_WARMUP_CACHE``, or None when unset.

    This is how sweep worker processes find the shared cache: the
    executor/CLI exports the variable and every :func:`warm_start` /
    :func:`prewarm` without an explicit cache picks it up.  Returns one
    :class:`WarmupCache` instance per directory so the in-memory memo is
    shared across calls.
    """
    root = os.environ.get(WARMUP_CACHE_ENV)
    if not root:
        return None
    resolved = str(Path(root).resolve())
    cache = _caches_by_root.get(resolved)
    if cache is None:
        cache = WarmupCache(root)
        _caches_by_root[resolved] = cache
    return cache


@dataclass(frozen=True)
class WarmStart:
    """How one kind of run reaches its post-warm-up state.

    ``build`` returns a fresh, never-run rig (a node or a fabric);
    ``key`` is the warm-up cache key of a built rig; ``warm`` simulates
    the warm-up on a built rig, ending drained with statistics reset;
    ``meta`` is the extra checkpoint metadata of the sealed snapshot.
    """

    build: Callable[[], Any]
    key: Callable[[Any], str]
    warm: Callable[[Any], None]
    meta: Dict[str, Any]


def _resolve(cache: Optional[WarmupCache]) -> Optional[WarmupCache]:
    return cache if cache is not None else warmup_cache_from_env()


def warm_start(spec: WarmStart, cache: Optional[WarmupCache] = None):
    """A built rig in its post-warm-up state, ready to measure.

    With a cache (``cache`` or ``REPRO_WARMUP_CACHE``) a stored snapshot
    is restored — bit-identical to warming up — and a missing one is
    simulated and stored.  A snapshot that fails to restore (schema
    drift from another code version) is discarded and the warm-up re-run
    on a rebuilt rig: the failed restore may have half-mutated this one.
    """
    cache = _resolve(cache)
    rig = spec.build()
    if cache is None:
        spec.warm(rig)
        return rig
    key = spec.key(rig)
    snapshot = cache.get(key)
    if snapshot is not None:
        try:
            rig.restore(snapshot)
            return rig
        except CheckpointError:
            cache.discard(key)
            rig = spec.build()
    spec.warm(rig)
    cache.put(key, rig.checkpoint(extra_meta=spec.meta))
    return rig


def prewarm(spec: WarmStart, cache: Optional[WarmupCache] = None) -> bool:
    """Store the snapshot :func:`warm_start` would look up, without
    measuring.  Returns True when a fresh snapshot was simulated and
    stored, False on a cache hit or when no cache is configured.

    The sweep executor's parent calls this before forking workers: the
    validated read-back lands the snapshot in the in-memory memo, which
    every forked worker inherits through copy-on-write memory.
    """
    cache = _resolve(cache)
    if cache is None:
        return False
    rig = spec.build()
    key = spec.key(rig)
    if cache.get(key) is not None:
        return False
    spec.warm(rig)
    cache.put(key, rig.checkpoint(extra_meta=spec.meta))
    cache.get(key)   # validated read-back seeds the in-memory memo
    return True
