"""SimObject base class and the Simulation container.

A :class:`Simulation` owns the event queue and the RNG; a
:class:`SimObject` is any named component attached to it.  This mirrors
gem5's SimObject/Root split closely enough that the paper's architecture
descriptions ("we implement a simulation object called EtherLoadGen ...")
translate one-to-one.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.event_queue import Event, EventQueue
from repro.sim.invariants import InvariantRegistry
from repro.sim.rng import DeterministicRng
from repro.sim.trace import TraceOptions, Tracer


class Simulation:
    """Top-level container: event queue + RNG + object registry,
    plus the cross-cutting correctness layer (tracer + invariants)."""

    def __init__(self, seed: int = 0,
                 trace_options: Optional[TraceOptions] = None,
                 invariant_mode: Optional[str] = None) -> None:
        self.events = EventQueue()
        self.rng = DeterministicRng(seed)
        self._objects: Dict[str, "SimObject"] = {}
        #: Persistent events by registry name — the callbacks a restored
        #: checkpoint can re-bind pending events to.  Populated by
        #: :meth:`SimObject.make_event`; one-shot ``call_after`` closures
        #: are deliberately absent (they imply non-quiescence).
        self._named_events: Dict[str, Event] = {}
        self.tracer = Tracer(trace_options)
        self.invariants = InvariantRegistry(self.events, mode=invariant_mode)
        self._register_core_invariants()

    def _register_core_invariants(self) -> None:
        """Event-queue sanity: simulated time never flows backwards and
        the next pending event is never behind ``now``."""
        queue = self.events
        state = {"last_now": 0, "last_fired": 0}

        def tick_monotonic(final: bool):
            now = queue.now
            if now < state["last_now"]:
                return [f"time went backwards: "
                        f"{state['last_now']} -> {now}"]
            state["last_now"] = now
            head = queue.peek()
            if head is not None and head < now:
                return [f"pending event at tick {head} is in the past "
                        f"(now {now})"]
            return None

        def queue_sane(final: bool):
            if not final:
                return None
            fired = queue.fired
            if fired < state["last_fired"]:
                return [f"fired-event count decreased: "
                        f"{state['last_fired']} -> {fired}"]
            state["last_fired"] = fired
            if queue.pending < 0:
                return [f"negative pending event count {queue.pending}"]
            return None

        self.invariants.register("sim.tick-monotonic", tick_monotonic)
        self.invariants.register("sim.event-queue-sane", queue_sane)

    @property
    def now(self) -> int:
        """Current simulated tick."""
        return self.events.now

    def register(self, obj: "SimObject") -> None:
        """Register a SimObject under its unique name."""
        if obj.name in self._objects:
            raise ValueError(f"duplicate SimObject name {obj.name!r}")
        self._objects[obj.name] = obj

    def object(self, name: str) -> "SimObject":
        """Look up a SimObject by name."""
        return self._objects[name]

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run the event loop; see :meth:`EventQueue.run`."""
        return self.events.run(until=until, max_events=max_events)

    # -- checkpoint support ------------------------------------------------

    def register_event(self, name: str, event: Event) -> Event:
        """Register a persistent event so checkpoints can re-bind it.

        Names are unique per simulation (SimObject names already are, and
        event names are prefixed by their owner), so a collision means two
        components claimed the same identity — fail loudly.
        """
        if name in self._named_events:
            raise ValueError(f"duplicate named event {name!r}")
        self._named_events[name] = event
        return event

    def named_event_status(self):
        """Pending live events partitioned into (registered, unregistered).

        A pending event outside the registry is a one-shot closure that
        cannot survive a checkpoint; callers use this to decide whether
        the simulation has drained far enough to snapshot.
        """
        names_by_event = {id(ev): name
                          for name, ev in self._named_events.items()}
        registered, unregistered = [], []
        for event in self.events.live_events():
            (registered if id(event) in names_by_event
             else unregistered).append(event)
        return registered, unregistered

    def serialize_state(self) -> dict:
        """Snapshot the simulation-global state: event queue (pending
        events by registry name), RNG stream, tracer."""
        names_by_event = {id(ev): name
                          for name, ev in self._named_events.items()}
        return {
            "events": self.events.serialize_state(names_by_event),
            "rng": self.rng.getstate(),
            "trace": self.tracer.serialize_state(),
        }

    def deserialize_state(self, state: dict) -> None:
        """Restore simulation-global state into this freshly built
        simulation: the event queue must be empty (nothing started)."""
        self.events.deserialize_state(state["events"], self._named_events)
        self.rng.setstate(state["rng"])
        self.tracer.deserialize_state(state["trace"])


class SimObject:
    """A named simulation component.

    Subclasses get:

    - ``self.sim`` — the owning :class:`Simulation`
    - scheduling helpers (``schedule_after`` etc.) bound to the shared queue

    The base attributes are slotted so the hottest lookup (``self.sim``)
    hits a descriptor rather than a dict; subclasses that declare their
    own ``__slots__`` drop the per-instance dict entirely.
    """

    __slots__ = ("sim", "name", "__dict__")

    def __init__(self, sim: Simulation, name: str) -> None:
        self.sim = sim
        self.name = name
        sim.register(self)

    @property
    def now(self) -> int:
        """Current simulated tick (the queue's clock, read directly: this
        is the simulator's most-read property)."""
        return self.sim.events._now

    def make_event(self, callback: Callable[[], None], name: str = "",
                   priority: int = Event.DEFAULT_PRIORITY) -> Event:
        """Create a persistent event owned by this object.

        The event is registered in the simulation's named-event registry,
        which is what allows it to be pending across a checkpoint: the
        restoring side looks the callback up again by the same name.
        """
        event = Event(callback, name=f"{self.name}.{name or 'event'}",
                      priority=priority)
        return self.sim.register_event(event.name, event)

    def schedule(self, event: Event, when: int) -> Event:
        """Schedule an event at an absolute tick."""
        return self.sim.events.schedule(event, when)

    def schedule_after(self, event: Event, delay: int) -> Event:
        """Schedule an event relative to now."""
        return self.sim.events.schedule_after(event, delay)

    def call_after(self, delay: int, callback: Callable[[], None],
                   name: str = "") -> Event:
        """Schedule a one-shot callback relative to now."""
        return self.sim.events.call_after(
            delay, callback, name=f"{self.name}.{name or 'call'}")

    def deschedule(self, event: Event) -> None:
        """Cancel a pending event."""
        self.sim.events.deschedule(event)

    def trace(self, category: str, event: str, **fields) -> None:
        """Record a structured trace event attributed to this object.

        Near-free while tracing is disabled: one attribute read and a
        branch.  Callers on hot paths should still guard expensive field
        construction with ``if self.sim.tracer.enabled:``.
        """
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.record(self.sim.events.now, self.name, category, event,
                          fields or None)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
