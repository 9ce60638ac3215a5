"""Discrete-event simulation substrate.

This package plays the role gem5's event engine plays for the paper: an
integer-tick (picosecond) event queue, a :class:`SimObject` base class with
hierarchical naming, and distributions and histograms for sample
statistics (scalar counts are plain attributes named in each component's
``measured_fields``).

Everything in the reproduction — the NIC model, DMA engine, cores, the
EtherLoadGen — is a :class:`SimObject` scheduled on a single
:class:`EventQueue` owned by a :class:`Simulation`.
"""

from repro.sim.ticks import (
    TICKS_PER_SEC,
    TICKS_PER_MS,
    TICKS_PER_US,
    TICKS_PER_NS,
    s_to_ticks,
    ms_to_ticks,
    us_to_ticks,
    ns_to_ticks,
    ticks_to_s,
    ticks_to_us,
    ticks_to_ns,
    freq_to_period,
)
from repro.sim.event_queue import Event, EventQueue
from repro.sim.simobject import SimObject, Simulation
from repro.sim.stats import Distribution, Histogram
from repro.sim.rng import DeterministicRng
from repro.sim.trace import (
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    TraceOptions,
    Tracer,
)
from repro.sim.invariants import (
    InvariantRegistry,
    InvariantViolation,
    mode_from_env,
)
from repro.sim.ports import (
    CallbackClock,
    ClockDomain,
    PacketPort,
    Port,
    PortBindError,
    RequestPort,
    ResponsePort,
    ports_of,
)

__all__ = [
    "TICKS_PER_SEC",
    "TICKS_PER_MS",
    "TICKS_PER_US",
    "TICKS_PER_NS",
    "s_to_ticks",
    "ms_to_ticks",
    "us_to_ticks",
    "ns_to_ticks",
    "ticks_to_s",
    "ticks_to_us",
    "ticks_to_ns",
    "freq_to_period",
    "Event",
    "EventQueue",
    "SimObject",
    "Simulation",
    "Distribution",
    "Histogram",
    "DeterministicRng",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "TraceOptions",
    "Tracer",
    "InvariantRegistry",
    "InvariantViolation",
    "mode_from_env",
    "CallbackClock",
    "ClockDomain",
    "PacketPort",
    "Port",
    "PortBindError",
    "RequestPort",
    "ResponsePort",
    "ports_of",
]
