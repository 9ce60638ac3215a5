"""Typed ports and bindings — the wiring layer.

gem5 composes SimObjects through *ports*: a request port on one object
binds to a response port on another, and the binding (not the objects) is
where direction and type are checked.  This module is the equivalent for
the reproduction: every connection between components — packet wires,
memory requests, DMA channels, driver attachment, clock distribution —
goes through a :class:`Port` pair whose :meth:`Port.bind` validates the
pairing and records per-link metadata (latency, bandwidth).

Port taxonomy (``kind``):

==========  ==========================================================
packet      Ethernet frames between two devices (symmetric peers,
            bound through an :class:`~repro.nic.phy.EtherLink` that
            carries the bandwidth/latency of the cable)
mem         memory requests into a :class:`~repro.mem.hierarchy.MemoryHierarchy`
dma         the NIC's channel to its :class:`~repro.nic.dma.DmaEngine`
bus         a bandwidth-limited interconnect (:class:`~repro.mem.xbar.BandwidthServer`)
driver      a driver (PMD or kernel) taking ownership of a device
app         an application attaching to its driver
buffer      a packet-buffer pool client (mempool)
clock       simulated-time distribution from a :class:`ClockDomain`
stack       kernel protocol-stack attachment
==========  ==========================================================

Roles mirror gem5's master/slave (request/response after v20.x): a
``request`` port initiates, a ``response`` port serves, and symmetric
``peer`` ports (packet ports) bind to each other.  A response port
created with ``multi=True`` accepts several requestors (a memory
hierarchy serving two cores and a DMA engine); everything else is
strictly point-to-point and a second ``bind`` raises
:class:`PortBindError`.

The binding layer adds *no* runtime indirection to the data path: bound
components keep calling each other directly, exactly as before.  What the
ports add is build-time structure — the wiring graph a
:class:`~repro.system.topology.Topology` validates and renders as DOT.
Conservation rules are not wired here: each component states its own
in ``invariant_failures`` (see :mod:`repro.sim.invariants`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.checkpoint import Stateful
from repro.sim.ticks import TICKS_PER_NS

# -- port kinds --------------------------------------------------------------

KIND_PACKET = "packet"
KIND_MEM = "mem"
KIND_DMA = "dma"
KIND_BUS = "bus"
KIND_DRIVER = "driver"
KIND_APP = "app"
KIND_BUFFER = "buffer"
KIND_CLOCK = "clock"
KIND_STACK = "stack"

KINDS = (KIND_PACKET, KIND_MEM, KIND_DMA, KIND_BUS, KIND_DRIVER,
         KIND_APP, KIND_BUFFER, KIND_CLOCK, KIND_STACK)

# -- roles -------------------------------------------------------------------

ROLE_REQUEST = "request"
ROLE_RESPONSE = "response"
ROLE_PEER = "peer"

_COMPLEMENT = {
    ROLE_REQUEST: ROLE_RESPONSE,
    ROLE_RESPONSE: ROLE_REQUEST,
    ROLE_PEER: ROLE_PEER,
}


class PortBindError(RuntimeError):
    """A port pairing is invalid (kind/role mismatch, double bind, ...)."""


def owner_label(owner) -> str:
    """Display name of a port's owning component."""
    if owner is None:
        return "<unowned>"
    name = getattr(owner, "name", None)
    if isinstance(name, str) and name:
        return name
    return type(owner).__name__


class Port:
    """One typed connection point on a component.

    ``owner`` is the component the port belongs to.
    """

    def __init__(self, owner, name: str, kind: str, role: str,
                 multi: bool = False, external: bool = False,
                 hint: Optional[str] = None) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown port kind {kind!r}; expected one "
                             f"of {KINDS}")
        if role not in _COMPLEMENT:
            raise ValueError(f"unknown port role {role!r}")
        self.owner = owner
        self.port_name = name
        self.kind = kind
        self.role = role
        self.multi = multi
        #: Actionable advice shown when this port is reported dangling.
        self.hint = hint
        #: External ports face outside the topology under construction
        #: (a NIC's wire-side port before a generator attaches); the
        #: unbound-port check reports them separately instead of failing.
        self.external = external
        self.peers: List["Port"] = []
        #: Per-binding metadata (latency/bandwidth/...), parallel to peers.
        self.bind_metadata: List[dict] = []

    # -- introspection -----------------------------------------------------

    @property
    def full_name(self) -> str:
        """``owner.port`` — the name bind errors and DOT edges use."""
        return f"{owner_label(self.owner)}.{self.port_name}"

    @property
    def bound(self) -> bool:
        """True once at least one peer is bound."""
        return bool(self.peers)

    @property
    def peer(self) -> Optional["Port"]:
        """The bound peer (first one, for ``multi`` ports)."""
        return self.peers[0] if self.peers else None

    # -- binding -----------------------------------------------------------

    def bind_error(self, peer: "Port") -> Optional[str]:
        """Why this pairing would be invalid (None when it is fine)."""
        if not isinstance(peer, Port):
            return f"{self.full_name}: peer {peer!r} is not a Port"
        if peer is self:
            return f"{self.full_name}: cannot bind a port to itself"
        if self.kind != peer.kind:
            return (f"kind mismatch: {self.full_name} is a {self.kind} "
                    f"port but {peer.full_name} is a {peer.kind} port")
        if _COMPLEMENT[self.role] != peer.role:
            return (f"role mismatch: {self.full_name} ({self.role}) "
                    f"cannot bind {peer.full_name} ({peer.role}); "
                    f"a {self.role} port needs a "
                    f"{_COMPLEMENT[self.role]} peer")
        for port in (self, peer):
            if port.bound and not port.multi:
                return (f"{port.full_name} is already bound to "
                        f"{port.peer.full_name}")
        if peer in self.peers:
            return (f"{self.full_name} is already bound to "
                    f"{peer.full_name}")
        return None

    def bind(self, peer: "Port", **metadata) -> "Port":
        """Bind this port to ``peer`` after validating the pairing.

        ``metadata`` (link latency, bandwidth, ...) is recorded on both
        sides.  Returns ``self`` so wiring code chains naturally.
        """
        problem = self.bind_error(peer)
        if problem:
            raise PortBindError(problem)
        self.peers.append(peer)
        self.bind_metadata.append(dict(metadata))
        peer.peers.append(self)
        peer.bind_metadata.append(dict(metadata))
        return self

    def __repr__(self) -> str:
        state = (f"-> {self.peer.full_name}" if self.bound else "unbound")
        return f"<Port {self.full_name} {self.kind}/{self.role} {state}>"


class RequestPort(Port):
    """The initiating side of a connection (gem5 master)."""

    def __init__(self, owner, name: str, kind: str,
                 external: bool = False,
                 hint: Optional[str] = None) -> None:
        super().__init__(owner, name, kind, ROLE_REQUEST, external=external,
                         hint=hint)


class ResponsePort(Port):
    """The serving side of a connection (gem5 slave).

    ``multi=True`` lets several requestors share one server — a memory
    hierarchy below two cores, a mempool with several clients.
    """

    def __init__(self, owner, name: str, kind: str, multi: bool = False,
                 external: bool = False,
                 hint: Optional[str] = None) -> None:
        super().__init__(owner, name, kind, ROLE_RESPONSE, multi=multi,
                         external=external, hint=hint)


class PacketPort(Port):
    """A symmetric Ethernet-frame endpoint.

    Packet ports bind peer-to-peer through an
    :class:`~repro.nic.phy.EtherLink` (or, when the far end lives in
    another simulation, a :class:`~repro.sim.channel.ChannelHalf` that
    stands in for the remote half of the cable), which supplies the
    binding's bandwidth/latency metadata.
    """

    def __init__(self, owner, name: str, external: bool = False) -> None:
        super().__init__(owner, name, KIND_PACKET, ROLE_PEER,
                         external=external)


def ports_of(component) -> List[Port]:
    """All :class:`Port` instances a component exposes, in creation
    order (instance attributes preserve insertion order)."""
    found: List[Port] = []
    attrs = getattr(component, "__dict__", None)
    if not attrs:
        return found
    for value in attrs.values():
        if isinstance(value, Port):
            found.append(value)
    return found


class ClockDomain(Stateful):
    """A shared simulated-time source.

    Components in the same clock domain read one consistent notion of
    "now" in nanoseconds (the unit the core and DRAM models work in).
    This replaces the historical ``core.clock = lambda: sim.now / 1000``
    attribute injection: a :class:`~repro.cpu.core.CoreModel` now *takes*
    a clock domain, and sharing one (e.g. the pipeline worker core with
    the RX core) is explicit in the wiring instead of a copied lambda.
    """

    def __init__(self, sim, name: str = "clock") -> None:
        self.sim = sim
        self.name = name
        self.port = ResponsePort(self, "out", KIND_CLOCK, multi=True)

    def now_ns(self) -> float:
        """Current simulated time in nanoseconds."""
        return self.sim.now / TICKS_PER_NS

    def now_ticks(self) -> int:
        """Current simulated tick (picoseconds)."""
        return self.sim.now

    # Stateless: a clock domain reads time from the simulation, so it
    # declares no state fields.

    def __repr__(self) -> str:
        return f"<ClockDomain {self.name}>"


class CallbackClock:
    """A clock-domain stand-in wrapping a plain callable.

    Unit tests (and calibration scripts) sometimes drive a core from a
    synthetic time source; wrapping the callable keeps
    :class:`~repro.cpu.core.CoreModel`'s public API uniform — it always
    holds an object with ``now_ns()``, never a bare lambda.
    """

    def __init__(self, fn: Callable[[], float], name: str = "callback_clock"):
        self._fn = fn
        self.name = name
        self.port = ResponsePort(self, "out", KIND_CLOCK, multi=True)

    def now_ns(self) -> float:
        """Current time in nanoseconds, as reported by the callback."""
        return self._fn()
