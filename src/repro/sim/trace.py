"""Structured event tracing.

A :class:`Tracer` is attached to every :class:`~repro.sim.simobject.Simulation`
and is **disabled by default**: the only cost a non-traced simulation pays
is one attribute read and a branch at each instrumentation site.  When
enabled (``REPRO_TRACE=1`` in the environment, ``--trace`` on the CLI, or
an explicit :class:`TraceOptions`), instrumented components append
structured records — ``(tick, object, category, event, fields)`` — into a
bounded ring buffer per SimObject, so a runaway simulation can never
exhaust memory through its own trace.

The trace exports as JSONL: one schema-versioned header line followed by
one line per record in deterministic ``(tick, seq)`` order.  Because the
simulation itself is deterministic, the exported byte stream (and hence
:meth:`Tracer.digest`) is a fingerprint of the simulation's behaviour:
identical ``(config, seed)`` must produce identical digests, serial or
parallel — a property the test suite enforces.

Categories used by the built-in instrumentation:

========  ====================================================
loadgen   EtherLoadGen packet emission and return
nic       wire reception, drops (with FSM cause), writebacks
dma       RX/TX packet DMA start/finish at the NIC
app       application burst processing
========  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

#: Bump when the JSONL record shape changes; readers check the header.
TRACE_SCHEMA_VERSION = 1

DEFAULT_BUFFER_SIZE = 4096


@dataclass(frozen=True)
class TraceOptions:
    """What to trace and how much of it to keep.

    ``categories``/``objects`` of ``None`` mean "everything"; otherwise
    only records matching one of the named categories *and* one of the
    named objects are kept.
    """

    enabled: bool = False
    buffer_size: int = DEFAULT_BUFFER_SIZE
    categories: Optional[frozenset] = None
    objects: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.buffer_size < 1:
            raise ValueError("trace buffer size must be positive")

    @classmethod
    def from_env(cls, env=None) -> "TraceOptions":
        """Build options from ``REPRO_TRACE``.

        ``REPRO_TRACE`` unset/empty/``0`` disables tracing; ``1`` or
        ``all`` traces everything; any other value is a comma-separated
        category filter (e.g. ``REPRO_TRACE=nic,dma``).
        ``REPRO_TRACE_BUFFER`` overrides the per-object ring capacity.
        """
        env = os.environ if env is None else env
        spec = env.get("REPRO_TRACE", "").strip()
        if not spec or spec == "0":
            return cls(enabled=False)
        raw = env.get("REPRO_TRACE_BUFFER", str(DEFAULT_BUFFER_SIZE))
        try:
            buffer_size = int(raw)
            if buffer_size < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"REPRO_TRACE_BUFFER={raw!r}: expected a "
                             f"positive integer") from None
        if spec in ("1", "all", "on"):
            return cls(enabled=True, buffer_size=buffer_size)
        categories = frozenset(
            part.strip() for part in spec.split(",") if part.strip())
        return cls(enabled=True, buffer_size=buffer_size,
                   categories=categories or None)

    def signature(self) -> dict:
        """The options as plain JSON data: what a checkpoint records
        and a warm-up key covers."""
        return {
            "enabled": self.enabled,
            "buffer_size": self.buffer_size,
            "categories": (sorted(self.categories)
                           if self.categories is not None else None),
            "objects": (sorted(self.objects)
                        if self.objects is not None else None),
        }


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    tick: int
    seq: int          # global insertion order (tie-break within a tick)
    obj: str          # SimObject name that emitted the record
    category: str
    event: str
    fields: Tuple[Tuple[str, object], ...]   # sorted (key, value) pairs

    def as_dict(self) -> dict:
        """Plain-dict rendering (the JSONL line payload)."""
        return {"tick": self.tick, "seq": self.seq, "obj": self.obj,
                "cat": self.category, "event": self.event,
                "fields": dict(self.fields)}


class Tracer:
    """Per-simulation trace collector with bounded per-object buffers."""

    def __init__(self, options: Optional[TraceOptions] = None) -> None:
        self.options = options if options is not None \
            else TraceOptions.from_env()
        #: Hot-path flag: instrumentation sites read this and bail early.
        self.enabled = self.options.enabled
        self._buffers: Dict[str, Deque[TraceEvent]] = {}
        self._seq = 0
        self.recorded = 0
        self.filtered = 0
        self.evicted = 0   # records pushed out of a full ring buffer

    def record(self, tick: int, obj: str, category: str, event: str,
               fields: Optional[dict] = None) -> None:
        """Append one record (no-op while disabled)."""
        if not self.enabled:
            return
        opts = self.options
        if opts.categories is not None and category not in opts.categories:
            self.filtered += 1
            return
        if opts.objects is not None and obj not in opts.objects:
            self.filtered += 1
            return
        buf = self._buffers.get(obj)
        if buf is None:
            buf = self._buffers[obj] = deque(maxlen=opts.buffer_size)
        if len(buf) == buf.maxlen:
            self.evicted += 1
        packed = tuple(sorted(fields.items())) if fields else ()
        buf.append(TraceEvent(tick, self._seq, obj, category, event, packed))
        self._seq += 1
        self.recorded += 1

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def serialize_state(self) -> dict:
        """Snapshot retained records and counters.  The trace digest
        covers warm-up-era records, so a restored run must resume with
        the same buffers to stay bit-identical with a straight-through
        run."""
        buffers = [[obj, [[ev.tick, ev.seq, ev.category, ev.event,
                           [list(pair) for pair in ev.fields]]
                          for ev in buf]]
                   for obj, buf in self._buffers.items()]
        return {
            "options": self.options.signature(),
            "buffers": buffers,
            "seq": self._seq,
            "recorded": self.recorded,
            "filtered": self.filtered,
            "evicted": self.evicted,
        }

    def deserialize_state(self, state: dict) -> None:
        options = self.options.signature()
        if state["options"] != options:
            raise ValueError(
                f"trace options changed across checkpoint: "
                f"{state['options']} -> {options}")
        self._buffers = {}
        for obj, records in state["buffers"]:
            buf = deque(maxlen=self.options.buffer_size)
            for tick, seq, category, event, fields in records:
                packed = tuple((key, value) for key, value in fields)
                buf.append(TraceEvent(tick, seq, obj, category, event,
                                      packed))
            self._buffers[obj] = buf
        self._seq = state["seq"]
        self.recorded = state["recorded"]
        self.filtered = state["filtered"]
        self.evicted = state["evicted"]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """All retained records in deterministic (tick, seq) order."""
        merged: List[TraceEvent] = []
        for buf in self._buffers.values():
            merged.extend(buf)
        merged.sort(key=lambda ev: (ev.tick, ev.seq))
        return merged

    def header(self) -> dict:
        """The schema-versioned JSONL header line payload."""
        options = self.options.signature()
        del options["enabled"]
        return {"trace_schema": TRACE_SCHEMA_VERSION, **options,
                "records": len(self.events()), "evicted": self.evicted}

    def to_jsonl(self) -> str:
        """The full trace as JSONL text: header line + one line/record."""
        lines = [json.dumps(self.header(), sort_keys=True,
                            separators=(",", ":"))]
        for ev in self.events():
            lines.append(json.dumps(ev.as_dict(), sort_keys=True,
                                    separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> None:
        """Export the trace to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def digest(self) -> str:
        """SHA-256 fingerprint of the exported trace.

        Deterministic simulations produce deterministic traces, so equal
        (config, seed) pairs must yield equal digests regardless of how
        (serial, parallel, cached replay recomputation) the run executed.
        """
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()


def read_jsonl(path) -> Tuple[dict, List[dict]]:
    """Parse a trace file back into (header, records); validates the
    schema version so format drift is an explicit error, not silence."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if not lines:
        raise ValueError(f"trace file {path} is empty")
    header = json.loads(lines[0])
    version = header.get("trace_schema")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"trace file {path} has schema {version!r}; this reader "
            f"understands {TRACE_SCHEMA_VERSION}")
    return header, [json.loads(line) for line in lines[1:]]
