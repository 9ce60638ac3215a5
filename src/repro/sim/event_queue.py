"""The event queue at the heart of the simulation.

Events are (tick, priority, sequence) ordered: ties on tick are broken by
priority (lower first) and then by insertion order, which makes simulations
fully deterministic for a fixed seed and schedule order — the property gem5
guarantees and that reproducible experiments depend on.

Two hot-path mechanisms keep the queue cheap without changing that order:

- a **same-tick FIFO run queue**: events scheduled at the current tick with
  default priority skip the heap entirely.  A newly scheduled event always
  has a larger sequence number than everything already pending, so a plain
  append keeps the FIFO sorted by the global (tick, priority, seq) key and
  the run loop only has to compare the two queue heads.
- :class:`EventPool`: a free-list of reusable one-shot events sharing one
  precomputed name and dispatch callback, replacing per-packet ``call_at``
  allocations.  Sequence numbers are assigned at ``schedule()`` time, so a
  pooled event scheduled at the same call site sorts identically to a
  freshly constructed one — firing order (and hence trace digests) is
  bit-identical either way.

Setting ``REPRO_EVENT_BATCH=0`` disables both and restores the reference
one-fresh-event-per-packet pure-heap path; the equivalence suite in
``tests/perf`` checks the two paths produce identical results.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.sim.checkpoint import CheckpointError


def batching_enabled() -> bool:
    """Whether the batched hot path (same-tick FIFO + event pools) is on.

    Read once per component at construction time so a single simulation
    never mixes the two paths mid-run.
    """
    return os.environ.get("REPRO_EVENT_BATCH", "1") != "0"


class Event:
    """A scheduled callback.

    Events are single-shot: once fired (or cancelled) they must be
    re-scheduled to run again.  ``deschedule`` marks the event cancelled;
    the queue lazily discards cancelled entries when they surface.
    """

    __slots__ = ("callback", "name", "priority", "_when", "_scheduled",
                 "_seq", "_gen")

    DEFAULT_PRIORITY = 0

    def __init__(
        self,
        callback: Callable[[], None],
        name: str = "",
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        self.callback = callback
        self.name = name or getattr(callback, "__qualname__", "event")
        self.priority = priority
        self._when: Optional[int] = None
        self._scheduled = False
        self._seq = -1
        self._gen = 0   # bumped on deschedule so stale heap entries die

    @property
    def scheduled(self) -> bool:
        """Whether the event is currently pending in a queue."""
        return self._scheduled

    @property
    def when(self) -> Optional[int]:
        """The tick the event is scheduled for, or None."""
        return self._when if self._scheduled else None

    def __repr__(self) -> str:
        state = f"@{self._when}" if self._scheduled else "unscheduled"
        return f"<Event {self.name} {state}>"


class _PooledEvent(Event):
    """A reusable one-shot event owned by an :class:`EventPool`.

    Carries its payload in a slot so no closure is allocated per
    scheduling; returns itself to the pool's free list when it fires.
    """

    __slots__ = ("pool", "payload")

    def __init__(self, pool: "EventPool") -> None:
        super().__init__(self._fire, name=pool.name)
        self.pool = pool
        self.payload = None

    def _fire(self) -> None:
        payload = self.payload
        self.payload = None
        pool = self.pool
        # Recycle before dispatch: the callback may immediately schedule
        # another completion from the same pool and can reuse this object.
        pool._free.append(self)
        pool.dispatch(payload)


class EventPool:
    """A free-list of one-shot events sharing a dispatch callback and name.

    Hot paths that used to allocate ``Event`` + closure + f-string name per
    packet instead call :meth:`schedule_at` with the per-firing state as a
    payload.  Recycled events are rescheduled through the normal
    ``EventQueue.schedule`` path, so ordering is identical to fresh events.
    """

    __slots__ = ("_free", "dispatch", "name")

    def __init__(self, dispatch: Callable, name: str) -> None:
        self._free: List[_PooledEvent] = []
        self.dispatch = dispatch   # called as dispatch(payload)
        self.name = name

    def schedule_at(self, queue: "EventQueue", when: int,
                    payload=None) -> Event:
        free = self._free
        event = free.pop() if free else _PooledEvent(self)
        event.payload = payload
        return queue.schedule(event, when)


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        #: Same-tick run queue: entries scheduled at the current tick with
        #: default priority.  Append-only while ``now`` holds still, which
        #: keeps it sorted by (tick, priority, seq) by construction.
        self._fifo: deque = deque()
        self._use_fifo = batching_enabled()
        self._now = 0
        self._seq = 0
        self._fired = 0
        self._live = 0
        #: Optional hook fired after every executed event callback.  Used
        #: by the invariant registry's strict mode; None (the default)
        #: costs one attribute read per event.
        self.on_event: Optional[Callable[["Event"], None]] = None

    @property
    def now(self) -> int:
        """Current simulated tick."""
        return self._now

    @property
    def fired(self) -> int:
        """Total number of events executed."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of live (not descheduled) events still queued."""
        return self._live

    def schedule(self, event: Event, when: int) -> Event:
        """Schedule ``event`` at absolute tick ``when``.

        Scheduling into the past is an error; scheduling an already-scheduled
        event is an error (deschedule or reschedule instead).
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule {event!r} at {when}, now is {self._now}"
            )
        if event._scheduled:
            raise RuntimeError(f"{event!r} is already scheduled")
        event._when = when
        event._scheduled = True
        seq = self._seq
        event._seq = seq
        self._seq = seq + 1
        self._live += 1
        if self._use_fifo and when == self._now and event.priority == 0:
            self._fifo.append((when, 0, seq, event, event._gen))
        else:
            heapq.heappush(self._heap,
                           (when, event.priority, seq, event, event._gen))
        return event

    def schedule_after(self, event: Event, delay: int) -> Event:
        """Schedule ``event`` ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule(event, self._now + delay)

    def deschedule(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling an idle event is a no-op."""
        if event._scheduled:
            self._live -= 1
        event._scheduled = False
        event._gen += 1

    def reschedule(self, event: Event, when: int) -> Event:
        """Move an event (scheduled or not) to absolute tick ``when``."""
        self.deschedule(event)
        return self.schedule(event, when)

    def call_at(
        self, when: int, callback: Callable[[], None], name: str = ""
    ) -> Event:
        """Convenience: wrap ``callback`` in a fresh event at tick ``when``."""
        return self.schedule(Event(callback, name=name), when)

    def call_after(
        self, delay: int, callback: Callable[[], None], name: str = ""
    ) -> Event:
        """Convenience: wrap ``callback`` in a fresh event ``delay`` ticks out."""
        return self.schedule_after(Event(callback, name=name), delay)

    def _head(self) -> Optional[tuple]:
        """The next live entry (not popped), or None.  Discards dead
        entries from both queue heads on the way."""
        fifo, heap = self._fifo, self._heap
        while fifo:
            entry = fifo[0]
            event = entry[3]
            if event._scheduled and entry[4] == event._gen:
                break
            fifo.popleft()
        while heap:
            entry = heap[0]
            event = entry[3]
            if event._scheduled and entry[4] == event._gen:
                break
            heapq.heappop(heap)
        if fifo and (not heap or fifo[0] < heap[0]):
            return fifo[0]
        return heap[0] if heap else None

    def peek(self) -> Optional[int]:
        """Tick of the next live event, or None if the queue is drained."""
        head = self._head()
        return head[0] if head is not None else None

    def advance_to(self, tick: int) -> int:
        """Advance an idle clock to ``tick`` without running anything.

        ``run(until=h)`` freezes ``now`` at the last fired event when the
        queue drains mid-horizon, so two event queues that drained at
        different ticks disagree on "now" even after running to the same
        horizon.  Cross-process shard synchronization needs them
        realigned before a phase starts (a flow generator stamps its
        schedule with the current tick).  No-op when already at or past
        ``tick``; refuses to jump over a live pending event.
        """
        head = self._head()
        if head is not None and head[0] < tick:
            raise RuntimeError(
                f"cannot advance the clock to {tick}: a live event is "
                f"pending at {head[0]}")
        if tick > self._now:
            self._now = tick
        return self._now

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        fired = self._fired
        self.run(max_events=1)
        return self._fired != fired

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is passed, or
        ``max_events`` have fired.  Returns the current tick.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        When the horizon is reached with events still pending, ``now`` is
        advanced to ``until`` so repeated bounded runs make progress.
        """
        budget = max_events if max_events is not None else -1
        fifo, heap = self._fifo, self._heap
        while budget != 0:
            # Drop dead entries from both heads, then take the lesser.
            while fifo:
                entry = fifo[0]
                event = entry[3]
                if event._scheduled and entry[4] == event._gen:
                    break
                fifo.popleft()
            while heap:
                entry = heap[0]
                event = entry[3]
                if event._scheduled and entry[4] == event._gen:
                    break
                heapq.heappop(heap)
            if fifo and (not heap or fifo[0] < heap[0]):
                if until is not None and fifo[0][0] > until:
                    self._now = until
                    break
                when, _prio, _seq, event, _gen = fifo.popleft()
            elif heap:
                if until is not None and heap[0][0] > until:
                    self._now = until
                    break
                when, _prio, _seq, event, _gen = heapq.heappop(heap)
            else:
                break
            self._now = when
            event._scheduled = False
            event._gen += 1
            self._live -= 1
            self._fired += 1
            event.callback()
            hook = self.on_event
            if hook is not None:
                hook(event)
            if budget > 0:
                budget -= 1
        if until is not None and self._now < until \
                and not heap and not fifo:
            self._now = until
        return self._now

    # -- checkpoint support ----------------------------------------------

    def live_events(self) -> List[Event]:
        """Live (scheduled) events in firing order."""
        entries = [entry for entry in self._heap
                   if entry[3]._scheduled and entry[4] == entry[3]._gen]
        entries.extend(entry for entry in self._fifo
                       if entry[3]._scheduled and entry[4] == entry[3]._gen)
        return [entry[3] for entry in sorted(entries)]

    def serialize_state(self, names_by_event: Dict[int, str]) -> dict:
        """Snapshot the queue: clock, counters, and pending events by name.

        ``names_by_event`` maps ``id(event)`` to the registry name the
        restoring side will use to find the callback again.  A pending
        event absent from the map — a one-shot ``call_after`` closure —
        cannot be re-bound after restore, so it is a checkpoint error:
        the simulation has not been drained to a checkpointable point.
        """
        events = []
        for event in self.live_events():
            name = names_by_event.get(id(event))
            if name is None:
                raise CheckpointError(
                    f"pending event {event!r} is not in the named-event "
                    f"registry; drain the simulation to quiescence before "
                    f"checkpointing")
            events.append({"name": name, "when": event._when,
                           "priority": event.priority})
        return {"now": self._now, "seq": self._seq, "fired": self._fired,
                "events": events}

    def deserialize_state(self, state: dict,
                          events_by_name: Dict[str, Event]) -> None:
        """Rebuild a snapshot into this (freshly constructed, empty) queue.

        Events are re-scheduled in snapshot order — which is firing order,
        so relative tie-breaks among restored events are preserved — and
        the sequence counter is then advanced past its checkpointed value
        so events scheduled after restore sort behind restored ones.
        """
        if self._heap or self._fifo or self._now or self._seq:
            raise CheckpointError(
                "event queue restore requires a fresh (empty) queue")
        self._now = state["now"]
        for entry in state["events"]:
            event = events_by_name.get(entry["name"])
            if event is None:
                raise CheckpointError(
                    f"checkpoint references unknown event "
                    f"{entry['name']!r}; was the node built with the "
                    f"same configuration?")
            if event.priority != entry["priority"]:
                raise CheckpointError(
                    f"event {entry['name']!r} priority changed "
                    f"({entry['priority']} -> {event.priority})")
            self.schedule(event, entry["when"])
        self._seq = max(self._seq, state["seq"])
        self._fired = state["fired"]
