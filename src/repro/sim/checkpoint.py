"""Versioned, schema-checked simulation checkpoints.

The checkpoint subsystem follows gem5's drain-then-serialize discipline:
a checkpoint is taken only at *quiescence* — no frames on the wire, no
DMA in flight, no packets held by FIFOs, rings, or applications — so no
in-flight :class:`~repro.net.packet.Packet` payload ever needs to be
serialized.  What remains is plain counter/cursor state per SimObject,
the event queue's pending (named) events, the RNG streams, and the
tracer — all JSON-representable.

Format
------
A checkpoint is a single JSON document::

    {
      "format": 2,
      "meta":    {...},          # app/config/seed provenance (free-form)
      "sim":     {...},          # event queue, rng, tracer
      "objects": {label: state}, # one entry per topology component
      "digest":  "sha256..."     # over the canonical JSON minus "digest"
    }

The digest makes corruption and tampering detectable: :func:`verify`
recomputes it and raises :class:`CheckpointError` on mismatch.  Every
value is produced by ``serialize_state()`` on the owning component and
consumed by ``deserialize_state()`` — the Serializable protocol that
:class:`repro.system.topology.Topology` enforces at registration time,
so an unserializable component is a build-time error rather than a
silent checkpoint gap.  Most components implement it by deriving from
:class:`Stateful` and naming their state once in ``state_fields``; only
encoders that really transform data (distributions, histograms, event
queue, tracer, RNG, cache sets, KV store, mempool free list, drop FSM)
write their own.

Determinism: checkpoints contain no wall-clock timestamps and are
written with sorted keys, so the same simulation state always produces
the same bytes (and the same digest).
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
from typing import Any, Dict, List, Optional, Tuple

#: Version of the on-disk checkpoint schema.  Bump when the layout of
#: the document (or any component's state dict) changes incompatibly.
CHECKPOINT_FORMAT = 2

#: Top-level keys every checkpoint document must carry.
_REQUIRED_KEYS = ("format", "meta", "sim", "objects", "digest")

#: :meth:`Rig.drain` advances in chunks of this much simulated time, at
#: most :data:`MAX_DRAIN_CHUNKS` of them.
DRAIN_CHUNK_US = 200.0
MAX_DRAIN_CHUNKS = 400

#: Numbers this process's :func:`write_atomic` temp files.
_write_ids = itertools.count()


class CheckpointError(Exception):
    """A checkpoint could not be taken, verified, or restored."""


def is_serializable(component: Any) -> bool:
    """True if ``component`` implements the Serializable protocol."""
    return (callable(getattr(component, "serialize_state", None))
            and callable(getattr(component, "deserialize_state", None)))


def assert_serializable(label: str, component: Any) -> None:
    """Raise :class:`CheckpointError` unless ``component`` implements
    ``serialize_state()`` / ``deserialize_state()``."""
    if not is_serializable(component):
        raise CheckpointError(
            f"component {label!r} ({type(component).__name__}) does not "
            f"implement serialize_state()/deserialize_state(); every "
            f"topology component must be checkpointable")


def state_key(path: str) -> str:
    """The document key of attribute path ``path``: one leading
    underscore dropped, dots turned into underscores
    (``_tx_dma_in_flight`` -> ``tx_dma_in_flight``, ``port.frames_sent``
    -> ``port_frames_sent``)."""
    return path[path.startswith("_"):].replace(".", "_")


def _owner(obj: Any, path: str) -> Tuple[Any, str]:
    """The object holding the last attribute of ``path``, and its name."""
    *parents, attr = path.split(".")
    for name in parents:
        obj = getattr(obj, name)
    return obj, attr


def _copied(value: Any) -> Any:
    """Lists and dicts deep-copied, anything else as is."""
    return copy.deepcopy(value) if isinstance(value, (list, dict)) else value


class Stateful:
    """A component whose checkpoint state is the attributes it names.

    ``state_fields`` lists attribute paths, each once; both directions of
    the Serializable protocol work from it, so a field cannot be saved
    and forgotten on restore.  The encoding rules:

    - the key of a path is :func:`state_key` of it;
    - an attribute that is itself serializable nests: its own
      ``serialize_state()`` / ``deserialize_state()`` run, so the
      sub-object keeps its identity;
    - lists and dicts are deep-copied both ways: a document may be
      restored many times (the warm-up cache hands one in-memory copy to
      every restore), so no component may share a list with it;
    - any other value passes through unchanged.

    A subclass extends its parent's tuple.  A component that can hold a
    packet, a frame, a descriptor or a DMA in flight says how many in
    ``held()``; the owning :class:`Rig` refuses a checkpoint while any
    component's ``held()`` is nonzero, so no ``serialize_state`` needs a
    refusal of its own.

    ``measured_fields`` lists the counters a measurement window covers
    the same way; :meth:`reset_measurement` resets them after warm-up.
    """

    __slots__ = ()

    state_fields: Tuple[str, ...] = ()
    measured_fields: Tuple[str, ...] = ()

    def reset_measurement(self) -> None:
        """Start a new measurement window: a measured field that is
        itself :class:`Stateful` resets through its own
        ``reset_measurement()``, one with a ``reset()`` method (a stats
        distribution, the drop FSM) through that, and any other value
        becomes the zero of its type (``0``, ``0.0``, ``[]``, ``{}``).
        A measured dict therefore starts each window empty: count into
        it with ``d[key] = d.get(key, 0) + 1``, never through preset
        keys."""
        for path in self.measured_fields:
            owner, attr = _owner(self, path)
            value = getattr(owner, attr)
            if isinstance(value, Stateful):
                value.reset_measurement()
            elif callable(getattr(value, "reset", None)):
                value.reset()
            else:
                setattr(owner, attr, type(value)())

    def serialize_state(self) -> dict:
        state = {}
        for path in self.state_fields:
            owner, attr = _owner(self, path)
            value = getattr(owner, attr)
            state[state_key(path)] = (value.serialize_state()
                                      if is_serializable(value)
                                      else _copied(value))
        return state

    def deserialize_state(self, state: dict) -> None:
        for path in self.state_fields:
            owner, attr = _owner(self, path)
            value = state[state_key(path)]
            current = getattr(owner, attr)
            if is_serializable(current):
                current.deserialize_state(value)
            else:
                setattr(owner, attr, _copied(value))


def canonical_json(document: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace drift."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def compute_digest(document: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``document`` minus ``digest``."""
    body = {k: v for k, v in document.items() if k != "digest"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def seal(document: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp ``format`` and ``digest`` onto a checkpoint document."""
    document["format"] = CHECKPOINT_FORMAT
    document["digest"] = compute_digest(document)
    return document


def verify(document: Any) -> Dict[str, Any]:
    """Validate a checkpoint document's schema, version, and digest.

    Returns the document on success; raises :class:`CheckpointError`
    describing the first problem found otherwise.
    """
    if not isinstance(document, dict):
        raise CheckpointError(
            f"checkpoint must be a JSON object, got {type(document).__name__}")
    for key in _REQUIRED_KEYS:
        if key not in document:
            raise CheckpointError(f"checkpoint missing required key {key!r}")
    fmt = document["format"]
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint format {fmt!r} not supported "
            f"(this build reads format {CHECKPOINT_FORMAT})")
    if not isinstance(document["objects"], dict):
        raise CheckpointError("checkpoint 'objects' must be an object")
    if not isinstance(document["sim"], dict):
        raise CheckpointError("checkpoint 'sim' must be an object")
    expected = compute_digest(document)
    if document["digest"] != expected:
        raise CheckpointError(
            f"checkpoint digest mismatch: recorded {document['digest']!r}, "
            f"recomputed {expected!r} (corrupted or tampered)")
    return document


def snapshot(sim: Any, topology: Any, meta: Dict[str, Any]) -> Dict[str, Any]:
    """Seal ``sim`` and every component of ``topology`` into a document.

    The one place a checkpoint is written: :meth:`Rig.checkpoint`
    checks readiness (drained, sources idle) and passes the rig's
    identity plus any extra provenance as ``meta``; the component label
    list is added as ``meta["components"]``.
    """
    labels = []
    objects = {}
    for label, component in topology.components():
        labels.append(label)
        try:
            objects[label] = component.serialize_state()
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"{topology.name}: serializing {label!r} failed: "
                f"{exc}") from exc
    return seal({
        "meta": {"components": labels, **meta},
        "sim": sim.serialize_state(),
        "objects": objects,
    })


def _key_differences(component: Any, fresh: Any, saved: Any, prefix: str,
                     missing: List[str], extra: List[str]) -> None:
    """Collect the keys ``saved`` lacks and the keys it adds against
    ``fresh``, this build's own ``serialize_state()`` of ``component``.
    Only the parts a :class:`Stateful` names in ``state_fields`` and
    that are themselves serializable are compared deeper; any other
    dict in the state is data (drops by cause, a host's flows), whose
    keys a fresh build cannot know."""
    if not isinstance(fresh, dict) or not isinstance(saved, dict):
        return
    missing.extend(prefix + key for key in fresh if key not in saved)
    extra.extend(prefix + key for key in saved if key not in fresh)
    for path in getattr(component, "state_fields", ()):
        owner, attr = _owner(component, path)
        part = getattr(owner, attr)
        key = state_key(path)
        if is_serializable(part) and key in fresh and key in saved:
            _key_differences(part, fresh[key], saved[key], f"{key}.",
                             missing, extra)


def _layout_problem(label: str, component: Any, fresh: Any,
                    saved: Any) -> Optional[str]:
    """How ``saved``, the document's entry for ``label``, differs in its
    keys from ``fresh``, what this build writes; None if it does not."""
    if saved is None:
        return f"{label!r} has no entry"
    missing: List[str] = []
    extra: List[str] = []
    _key_differences(component, fresh, saved, "", missing, extra)
    parts = [f"{kind} keys {sorted(keys)}"
             for kind, keys in (("missing", missing), ("extra", extra))
             if keys]
    return f"{label!r} has " + "; ".join(parts) if parts else None


def _refuse_mismatched_layout(sim: Any, topology: Any,
                              doc: Dict[str, Any]) -> None:
    """Refuse a document whose entries do not have the keys this
    build's components and event queue write, or whose pending events
    this build cannot re-bind by name, naming each mismatch: checked
    before :func:`restore_snapshot` writes anything."""
    fresh_sim = sim.serialize_state()
    sim_problems = [
        _layout_problem("sim", None, fresh_sim, doc["sim"]),
        _layout_problem("sim.events", None, fresh_sim["events"],
                        doc["sim"].get("events", {}))]
    problems = [_layout_problem(label, component,
                                component.serialize_state(),
                                doc["objects"].get(label))
                for label, component in topology.components()]
    problems.extend(sim_problems)
    if not any(sim_problems):
        registry = sim._named_events
        for entry in doc["sim"]["events"]["events"]:
            event = registry.get(entry["name"])
            if event is None:
                problems.append(f"pending event {entry['name']!r} is not "
                                f"in this build's named-event registry")
            elif event.priority != entry["priority"]:
                problems.append(
                    f"pending event {entry['name']!r} has priority "
                    f"{entry['priority']}, this build's has "
                    f"{event.priority}")
    problems = [problem for problem in problems if problem]
    if problems:
        raise CheckpointError(
            f"{topology.name}: checkpoint layout does not match this "
            f"build: " + ", ".join(problems))


def restore_snapshot(sim: Any, topology: Any, doc: Any,
                     expect: Dict[str, Any]) -> None:
    """Restore a :func:`snapshot` document into a freshly built,
    never-run ``sim`` and ``topology`` — the one place it is read.

    ``expect`` is the identity this build must match (``label``,
    ``app``, ``seed``); the component label list must match too, and
    every component entry must have the keys the component writes.
    All of it is checked, and so is freshness, before any state is
    touched: a rejected restore leaves the rig exactly as it was.
    """
    if not sim.events.fresh:
        raise CheckpointError(
            f"{topology.name}: restore needs a freshly built rig that has "
            f"never run; this one is at tick {sim.now} with "
            f"{sim.events.pending} events pending")
    doc = verify(doc)
    meta = doc["meta"]
    labels = [label for label, _comp in topology.components()]
    for key, want in dict(expect, components=labels).items():
        if meta.get(key) != want:
            raise CheckpointError(
                f"{topology.name}: checkpoint was taken with {key} "
                f"{meta.get(key)!r}, this build has {want!r}")
    _refuse_mismatched_layout(sim, topology, doc)
    for label, component in topology.components():
        try:
            component.deserialize_state(doc["objects"][label])
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"{topology.name}: restoring {label!r} failed: "
                f"{exc}") from exc
    sim.deserialize_state(doc["sim"])


class Rig:
    """A node or a fabric: one ``sim`` and the ``topology`` of its
    components, checkpointed and restored as a whole.

    A subclass supplies ``label``, ``identity_app`` (the application a
    checkpoint records) and ``law_failures()`` (its whole-rig
    conservation laws).  Drained is stated by the components: each one
    that can hold a packet says how many in ``held()``, and each traffic
    source says whether it still offers load in ``active``.  Quiescence,
    readiness, checkpoint, restore, the identity they check, the
    measurement reset and the invariant rule are defined here once, as
    walks over the topology.
    """

    def invariant_failures(self, final: bool = True) -> List[str]:
        """The rig's one invariant rule, which it registers under its
        label: the rules every topology component states, and at a
        final check of a drained rig the laws only the whole rig can
        see (they close only once nothing is held in between).  A
        component added after construction is checked because it joins
        the topology."""
        fails = self.topology.invariant_failures(final)
        if final and self.quiescent():
            fails.extend(self.law_failures())
        return fails

    def validate_wiring(self) -> None:
        """Fail with the dangling ports named if the rig is half-wired."""
        self.topology.validate()

    def wiring_dot(self) -> str:
        """The rig's wiring graph in Graphviz DOT form."""
        return self.topology.to_dot()

    def reset_measurement(self) -> None:
        """Reset the measured fields of every topology component: related
        counters (the DMA engine and the hierarchy, the NIC's drop FSM
        and RX FIFO rejections) reset at one instant."""
        for _label, component in self.topology.components():
            reset = getattr(component, "reset_measurement", None)
            if reset is not None:
                reset()

    def holders(self) -> List[Tuple[str, int]]:
        """(label, count) of every topology component whose ``held()``
        is nonzero, in registration order."""
        out = []
        for label, component in self.topology.components():
            held = getattr(component, "held", None)
            count = held() if held is not None else 0
            if count:
                out.append((label, count))
        return out

    def quiescent(self) -> bool:
        """No packet anywhere: every component's ``held()`` is 0."""
        return not self.holders()

    def sources_active(self) -> bool:
        """Whether some traffic source still offers load."""
        return any(getattr(component, "active", False)
                   for _label, component in self.topology.components())

    def _checkpoint_ready(self) -> bool:
        """Quiescent datapath, idle traffic sources, and every pending
        event re-creatable by name on restore."""
        if not self.quiescent() or self.sources_active():
            return False
        _registered, unregistered = self.sim.named_event_status()
        return not unregistered

    def everywhere(self, flag: bool) -> bool:
        """``flag`` as the whole run decides it: a rig in one process
        decides alone (a sharded fabric ANDs it over its shards)."""
        return flag

    def drain(self) -> None:
        """Run in fixed deterministic chunks until the rig is
        checkpoint-ready everywhere; raise :class:`CheckpointError` if
        it is not after :data:`MAX_DRAIN_CHUNKS` chunks."""
        for _ in range(MAX_DRAIN_CHUNKS):
            if self.everywhere(self._checkpoint_ready()):
                return
            self.run_us(DRAIN_CHUNK_US)
        raise CheckpointError(
            f"{self.label}: failed to reach quiescence after "
            f"{MAX_DRAIN_CHUNKS} drain chunks of {DRAIN_CHUNK_US}us")

    def checkpoint(self, extra_meta: Optional[dict] = None) -> dict:
        """The rig's complete state as a sealed :func:`snapshot` (the
        gem5 drain-then-serialize flow).  A rig that is not drained
        raises :class:`CheckpointError` naming what still holds
        packets; taking a checkpoint reads state only — it never
        perturbs the run."""
        if not self._checkpoint_ready():
            detail = []
            holders = self.holders()
            if holders:
                detail.append("packets are still held: " + ", ".join(
                    f"{label} {count}" for label, count in holders))
            if self.sources_active():
                detail.append("a traffic source is active")
            _registered, unregistered = self.sim.named_event_status()
            if unregistered:
                detail.append(
                    "anonymous one-shot events pending: "
                    + ", ".join(sorted(e.name for e in unregistered)))
            raise CheckpointError(
                f"{self.label} is not checkpoint-ready "
                f"({'; '.join(detail)})")
        return snapshot(self.sim, self.topology,
                        {**self._identity(), **(extra_meta or {})})

    def restore(self, doc: dict) -> None:
        """Restore a checkpoint into this freshly built, never-run rig:
        the inverse of :meth:`checkpoint` (:func:`restore_snapshot`).
        Do not start a restored rig: its event queue is rebuilt
        exactly, including the application's own events."""
        restore_snapshot(self.sim, self.topology, doc, self._identity())

    def _identity(self) -> dict:
        """What a checkpoint of this rig records, and restore checks."""
        return {"label": self.label, "app": self.identity_app,
                "seed": self.sim.rng.seed}


def write_atomic(path: str, text: str) -> None:
    """Publish ``text`` at ``path`` atomically.

    The text goes to a same-directory temp file named for this one write
    (pid and a per-process counter) and is published with ``os.replace``,
    so concurrent writers of one path (sweep workers racing to store the
    same result or snapshot) never share a temp file, and a reader never
    sees a torn file.  A failed write removes its temp file.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{next(_write_ids)}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_checkpoint(document: Dict[str, Any], path: str) -> None:
    """Write a sealed checkpoint to ``path`` atomically
    (:func:`write_atomic`), creating its directory if needed."""
    if "digest" not in document:
        seal(document)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_atomic(path, canonical_json(document))


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read, parse, and :func:`verify` the checkpoint at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return verify(document)


def describe(document: Dict[str, Any]) -> str:
    """Human-readable one-screen summary for ``checkpoint info``."""
    meta = document.get("meta", {})
    queue = document.get("sim", {}).get("events", {})
    lines = [
        f"format:  {document.get('format')}",
        f"digest:  {document.get('digest')}",
        f"tick:    {queue.get('now')}",
        f"events:  {len(queue.get('events', []))} pending",
        f"objects: {len(document.get('objects', {}))}",
    ]
    for key in sorted(meta):
        lines.append(f"meta.{key}: {meta[key]}")
    return "\n".join(lines)
