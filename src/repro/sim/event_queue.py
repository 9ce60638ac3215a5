"""The event queue at the heart of the simulation.

Events are (tick, priority, sequence) ordered: ties on tick are broken by
priority (lower first) and then by insertion order, which makes simulations
fully deterministic for a fixed seed and schedule order — the property gem5
guarantees and that reproducible experiments depend on.

Two hot-path mechanisms keep the queue cheap without changing that order:

- a **same-tick FIFO run queue**: entries scheduled at the current tick
  with default priority skip the heap entirely.  A newly scheduled entry
  always has a larger sequence number than everything already pending,
  so a plain append keeps the FIFO sorted by the global (tick, priority,
  seq) key and the run loop only has to compare the two queue heads.
- :class:`EventPool`: an **ordered stream** of per-packet firings, such
  as one direction of a wire.  A firing is a bare entry
  ``(tick, 0, seq, payload, pool)`` that waits in the pool's own deque;
  only the pool's earliest firing sits in the heap (or the FIFO), and
  when it fires the run loop queues the next one.  A pool refuses a
  firing earlier than its previous one, so its deque is sorted.  The
  order cannot change: a waiting entry keeps the key it took at
  :meth:`EventPool.schedule_at`, and it enters the heap while its
  predecessor fires, before anything with a larger key can be popped.
  The heap therefore holds one entry per busy stream and per named
  event, not one per frame in flight.  A named :class:`Event` keeps its
  ``(tick, priority, seq, event, generation)`` entry, which
  :meth:`EventQueue.deschedule` cancels lazily; a pooled firing is never
  cancelled.

Setting ``REPRO_EVENT_BATCH=0`` disables both and restores the reference
path: a pure heap, and one fresh ``Event(partial(dispatch, payload))``
per pooled firing, each in the heap under its own key.  The pool still
keeps its deque there (it is what :attr:`EventPool.pending` counts), and
it refuses an out-of-order firing on both paths.  This module is the
only reader of that switch: components always schedule their per-packet
firings through an :class:`EventPool`, and the pool alone decides how a
firing is stored.  The equivalence suite in ``tests/perf`` checks the
two paths produce identical results, which is the check on the ordering
argument above.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from functools import partial
from typing import Callable, Dict, List, Optional, Union

from repro.sim.checkpoint import CheckpointError


def batching_enabled() -> bool:
    """Whether the batched hot path (same-tick FIFO + bare pooled
    entries) is on.

    Read once per queue and per pool at construction time so a single
    simulation never mixes the two paths mid-run.
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


class _FreshFiring(partial):
    """A pooled firing on the reference path: ``partial(dispatch,
    payload)`` that first takes its entry off the pool's deque, so
    :attr:`EventPool.pending` counts the same on both paths."""

    __slots__ = ("pool",)

    def __call__(self):
        self.pool._waiting.popleft()
        return self.func(*self.args)


class EventPool:
    """An ordered stream of one-shot firings that share one dispatch
    callback and name.

    Hot paths call :meth:`schedule_at` with the per-firing state as a
    payload instead of allocating ``Event`` + closure + f-string name per
    packet.  A firing is a bare entry ``(tick, 0, seq, payload, pool)``
    that takes its sequence number at :meth:`schedule_at`, exactly as
    ``EventQueue.schedule`` would, and waits in the pool's deque; the
    queue holds only the pool's earliest firing and queues the next one
    when it fires.  So the firings of one pool must come in order: one
    earlier than the pool's previous firing is refused.  Each
    independent stream (a direction of a wire, an output port of a
    switch) gets its own pool.  The queue's ``on_event`` hook is handed
    the pool itself, which carries the ``name`` and ``callback`` an
    :class:`Event` would.  With ``REPRO_EVENT_BATCH=0`` each firing is
    a fresh :class:`Event` under the pool's name instead (the reference
    path).
    """

    __slots__ = ("_batched", "callback", "name", "_waiting")

    def __init__(self, dispatch: Callable, name: str) -> None:
        self._batched = batching_enabled()
        self.callback = dispatch   # called as callback(payload)
        self.name = name
        #: Every firing not yet fired, earliest first.  On the batched
        #: path the head is also queued in the heap or the FIFO.
        self._waiting: deque = deque()

    @property
    def pending(self) -> int:
        """Firings scheduled and not yet fired."""
        return len(self._waiting)

    def schedule_at(self, queue: "EventQueue", when: int,
                    payload=None) -> None:
        """Fire ``callback(payload)`` at absolute tick ``when``, which
        may be neither in the past nor before the pool's previous
        firing."""
        waiting = self._waiting
        now = queue._now
        if waiting:
            if when < waiting[-1][0]:
                raise ValueError(
                    f"cannot schedule {self!r} at {when}, before its "
                    f"previous firing at {waiting[-1][0]}")
        elif when < now:
            raise ValueError(
                f"cannot schedule {self!r} at {when}, now is {now}")
        if not self._batched:
            firing = _FreshFiring(self.callback, payload)
            firing.pool = self
            event = queue.schedule(Event(firing, name=self.name), when)
            waiting.append((when, 0, event._seq, payload, self))
            return
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        entry = (when, 0, seq, payload, self)
        if not waiting:   # the stream's next firing: queue it now
            if when == now and queue._use_fifo:
                queue._fifo.append(entry)
            else:
                heapq.heappush(queue._heap, entry)
        waiting.append(entry)

    def __repr__(self) -> str:
        return f"<EventPool {self.name}>"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects and
    pooled firings.

    Each queued entry is a tuple ``(tick, priority, seq, x, tag)``.  For
    a named event ``x`` is the :class:`Event` and ``tag`` the int
    generation it had when scheduled (a stale generation marks a
    cancelled entry); for a pooled firing ``x`` is the payload and
    ``tag`` the :class:`EventPool`, whose later firings wait in the
    pool until this one fires.
    """

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
        #: Optional hook fired after every executed event callback, with
        #: the :class:`Event`, or for a pooled firing its
        #: :class:`EventPool`.  Used by the invariant registry's strict
        #: mode; None (the default) costs one attribute read per event.
        self.on_event: Optional[
            Callable[[Union[Event, EventPool]], None]] = None

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
        """Number of live (not descheduled) events and pooled firings
        still queued."""
        return self._live

    @property
    def fresh(self) -> bool:
        """True until the first event is scheduled or the clock moves:
        the only state a checkpoint may be restored into."""
        return not (self._heap or self._fifo or self._now or self._seq)

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

    @staticmethod
    def _is_live(entry: tuple) -> bool:
        """Whether a queued entry will fire: a pooled firing always
        does, a named event unless descheduled since."""
        tag = entry[4]
        if type(tag) is not int:
            return True
        event = entry[3]
        return event._scheduled and tag == event._gen

    def _head(self) -> Optional[tuple]:
        """The next live entry (not popped), or None.  Discards dead
        entries from both queue heads on the way."""
        fifo, heap = self._fifo, self._heap
        while fifo and not self._is_live(fifo[0]):
            fifo.popleft()
        while heap and not self._is_live(heap[0]):
            heapq.heappop(heap)
        if fifo and (not heap or fifo[0] < heap[0]):
            return fifo[0]
        return heap[0] if heap else None

    def peek(self) -> Optional[int]:
        """Tick of the next live event, or None if the queue is drained."""
        head = self._head()
        return head[0] if head is not None else None

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        fired = self._fired
        self.run(max_events=1)
        return self._fired != fired

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is passed, or
        ``max_events`` have fired.  Returns the current tick.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        When the horizon is reached, with events still pending or with
        the queue drained early, ``now`` is advanced to ``until``: bounded
        runs make progress, and queues run to one horizon agree on the
        time.
        """
        budget = max_events if max_events is not None else -1
        fifo, heap = self._fifo, self._heap
        while budget != 0:
            # Drop dead entries from both heads, then take the lesser.
            # The liveness test is _is_live() inlined: this loop is the
            # hottest code in the simulator.
            while fifo:
                entry = fifo[0]
                tag = entry[4]
                if type(tag) is not int:
                    break
                event = entry[3]
                if event._scheduled and tag == event._gen:
                    break
                fifo.popleft()
            while heap:
                entry = heap[0]
                tag = entry[4]
                if type(tag) is not int:
                    break
                event = entry[3]
                if event._scheduled and tag == event._gen:
                    break
                heapq.heappop(heap)
            if fifo and (not heap or fifo[0] < heap[0]):
                if until is not None and fifo[0][0] > until:
                    self._now = until
                    break
                when, _prio, _seq, target, tag = fifo.popleft()
            elif heap:
                if until is not None and heap[0][0] > until:
                    self._now = until
                    break
                when, _prio, _seq, target, tag = heapq.heappop(heap)
            else:
                break
            self._now = when
            self._live -= 1
            self._fired += 1
            if type(tag) is int:
                target._scheduled = False
                target._gen += 1
                target.callback()
            else:
                # Queue the stream's next firing before this one runs.
                waiting = tag._waiting
                waiting.popleft()
                if waiting:
                    heapq.heappush(heap, waiting[0])
                tag.callback(target)
                target = tag
            hook = self.on_event
            if hook is not None:
                hook(target)
            if budget > 0:
                budget -= 1
        if until is not None and self._now < until \
                and not heap and not fifo:
            self._now = until
        return self._now

    # -- checkpoint support ----------------------------------------------

    def live_events(self) -> List[Union[Event, EventPool]]:
        """What will fire, in firing order: each live :class:`Event`, and
        for each pending pooled firing, queued or waiting in its pool,
        the :class:`EventPool`."""
        entries = []
        for entry in itertools.chain(self._heap, self._fifo):
            if type(entry[4]) is not int:
                entries.extend(entry[4]._waiting)
            elif self._is_live(entry):
                entries.append(entry)
        entries.sort()
        return [entry[3] if type(entry[4]) is int else entry[4]
                for entry in entries]

    def serialize_state(self, names_by_event: Dict[int, str]) -> dict:
        """Snapshot the queue: clock, counters, and pending events by name.

        ``names_by_event`` maps ``id(event)`` to the registry name the
        restoring side will use to find the callback again.  A pending
        event absent from the map — a one-shot ``call_after`` closure or
        a pooled firing, named by its pool — cannot be re-bound after
        restore, so it is a checkpoint error: the simulation has not
        been drained to a checkpointable point.
        """
        events = []
        unnamed: Dict[Union[Event, EventPool], int] = {}
        for event in self.live_events():
            name = names_by_event.get(id(event))
            if name is None:
                unnamed[event] = unnamed.get(event, 0) + 1
            else:
                events.append({"name": name, "when": event._when,
                               "priority": event.priority})
        if unnamed:
            listed = ", ".join(f"{event!r} x{count}" if count > 1
                               else repr(event)
                               for event, count in unnamed.items())
            raise CheckpointError(
                f"pending events not in the named-event registry: "
                f"{listed}; drain the simulation to quiescence before "
                f"checkpointing")
        return {"now": self._now, "seq": self._seq, "fired": self._fired,
                "events": events}

    def deserialize_state(self, state: dict,
                          events_by_name: Dict[str, Event]) -> None:
        """Rebuild a snapshot into this :attr:`fresh` queue.  Both are
        preconditions :func:`~repro.sim.checkpoint.restore_snapshot`
        checks before it restores anything: the queue is fresh, and
        each pending event's name is in ``events_by_name`` with the
        same priority.

        Events are re-scheduled in snapshot order — which is firing order,
        so relative tie-breaks among restored events are preserved — and
        the sequence counter is then advanced past its checkpointed value
        so events scheduled after restore sort behind restored ones.
        """
        self._now = state["now"]
        for entry in state["events"]:
            self.schedule(events_by_name[entry["name"]], entry["when"])
        self._seq = max(self._seq, state["seq"])
        self._fired = state["fired"]
