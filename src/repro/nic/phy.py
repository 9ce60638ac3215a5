"""Ethernet ports and links.

An :class:`EtherLink` is the direct cable between two :class:`EtherPort`
endpoints (Test Node NIC on one side, EtherLoadGen or a Drive Node NIC on
the other — Fig 1).  The link serializes frames at line rate and delivers
them after the configured propagation latency (Table I: 100Gbps, 200us).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet, wire_ticks
from repro.sim.checkpoint import Stateful
from repro.sim.event_queue import EventPool
from repro.sim.ports import PacketPort
from repro.sim.simobject import SimObject, Simulation


class EtherPort(Stateful, PacketPort):
    """One end of a link: owned by a device that can receive frames.

    A packet-kind :class:`~repro.sim.ports.Port`: two EtherPorts bind
    peer-to-peer through the :class:`EtherLink` (which supplies the
    binding's bandwidth/latency metadata), and the typed-port checks
    reject wiring mistakes — binding a port twice, or to something that
    is not a packet endpoint — at build time.
    """

    state_fields = ("frames_sent", "frames_received")

    def __init__(self, name: str, on_receive: Callable[[Packet], None],
                 owner=None) -> None:
        super().__init__(owner, name, external=True)
        self.name = name
        self.on_receive = on_receive
        self.link: Optional["EtherLink"] = None
        self.frames_sent = 0
        self.frames_received = 0

    @property
    def full_name(self) -> str:
        # EtherPort names have always been fully qualified ("nic0.port");
        # keep them as-is rather than re-prefixing with the owner.
        return self.name

    def send(self, packet: Packet) -> None:
        """Transmit toward the peer port."""
        if self.link is None:
            raise RuntimeError(f"port {self.name} is not connected")
        self.frames_sent += 1
        self.link.transmit(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Hand a received frame to the owning device."""
        self.frames_received += 1
        self.on_receive(packet)


class _Direction:
    """One direction of a full-duplex link: the port it carries frames
    from and the port it delivers to, its serialization horizon, its
    lifetime frame counters, and the frames on the wire, which are the
    pending firings of its delivery stream (one :class:`EventPool`:
    a wire delivers in the order it sent)."""

    __slots__ = ("key", "src", "dst", "free_at", "sent", "delivered",
                 "stream")

    def __init__(self, link_name: str, key: str) -> None:
        self.key = key   # "a" or "b": the direction's checkpoint key
        self.src: Optional[EtherPort] = None
        self.dst: Optional[EtherPort] = None
        self.free_at = 0
        self.sent = 0
        self.delivered = 0
        self.stream = EventPool(self._deliver, f"{link_name}.deliver_{key}")

    def _deliver(self, packet: Packet) -> None:
        self.delivered += 1
        self.dst.deliver(packet)


class EtherLink(Stateful, SimObject):
    """Full-duplex point-to-point Ethernet cable."""

    def __init__(self, sim: Simulation, name: str,
                 bandwidth_bits_per_sec: float = 100e9,
                 delay_ticks: int = 0) -> None:
        super().__init__(sim, name)
        if bandwidth_bits_per_sec <= 0:
            raise ValueError("link bandwidth must be positive")
        if delay_ticks < 0:
            raise ValueError("link delay cannot be negative")
        self.bandwidth_bits_per_sec = bandwidth_bits_per_sec
        self.delay_ticks = delay_ticks
        self._port_a: Optional[EtherPort] = None
        self._port_b: Optional[EtherPort] = None
        # Independent serialization horizon, counters and delivery
        # stream per direction (full duplex): a carries port_a's frames.
        self._a = _Direction(name, "a")
        self._b = _Direction(name, "b")
        self._wire_ticks = wire_ticks(bandwidth_bits_per_sec)

    def connect(self, port_a: EtherPort, port_b: EtherPort) -> None:
        """Attach the two endpoint ports to this link.

        This is a typed-port binding: direction/kind are validated, and
        the link's bandwidth and propagation delay become the binding's
        metadata.
        """
        if self._port_a is not None or self._port_b is not None:
            raise RuntimeError(f"{self.name} is already connected")
        port_a.bind(port_b, link=self,
                    bandwidth_bits_per_sec=self.bandwidth_bits_per_sec,
                    delay_ticks=self.delay_ticks)
        self._port_a, self._port_b = port_a, port_b
        self._a.src, self._a.dst = port_a, port_b
        self._b.src, self._b.dst = port_b, port_a
        port_a.link = self
        port_b.link = self

    def invariant_failures(self, final: bool = True):
        """Frame conservation: the wire loses nothing, so every frame the
        link accepts is either still serializing/propagating (a pending
        firing of its direction's delivery stream) or has been delivered
        to the peer.  Nothing to check until connected.

        The equality is over the link's *own* lifetime counters, not the
        port counters: unit tests legitimately call ``port.deliver()``
        out-of-band, and a port may be driven by several sources.  The
        port counters are coupled by inequalities instead — out-of-band
        traffic can only add to them."""
        if self._port_a is None:
            return []
        fails = []
        for d in (self._a, self._b):
            sent, delivered, in_flight = d.sent, d.delivered, d.stream.pending
            if sent != delivered + in_flight:
                fails.append(
                    f"frame-conservation: direction {d.key}: accepted "
                    f"{sent} frames but delivered {delivered} with "
                    f"{in_flight} in flight")
            if d.src.frames_sent < sent:
                fails.append(
                    f"frame-conservation: {d.src.name} sent "
                    f"{d.src.frames_sent} frames but the link carried "
                    f"{sent} from it")
            if d.dst.frames_received < delivered:
                fails.append(
                    f"frame-conservation: {d.dst.name} received "
                    f"{d.dst.frames_received} frames but the link "
                    f"delivered {delivered} to it")
        return fails

    def transmit(self, src_port: EtherPort, packet: Packet) -> None:
        """Serialize the frame at line rate, then deliver after the
        propagation delay."""
        if src_port is self._port_a:
            d = self._a
        elif src_port is self._port_b:
            d = self._b
        else:
            raise ValueError(f"{src_port.name} is not attached to {self.name}")
        events = self.sim.events
        now = events._now
        finish = ((d.free_at if d.free_at > now else now)
                  + self._wire_ticks[packet.wire_len])
        d.free_at = finish
        d.sent += 1
        d.stream.schedule_at(events, finish + self.delay_ticks, packet)

    def held(self) -> int:
        """Frames on the wire, both directions."""
        return self._a.stream.pending + self._b.stream.pending

    # -- checkpoint support --------------------------------------------------

    # Busy horizons and lifetime frame counters, keyed by direction;
    # frames still on the wire (held()) would need their payloads
    # serialized, so the link is checkpointed only once they have landed.

    def serialize_state(self) -> dict:
        return {"tx_free_at": {"a": self._a.free_at, "b": self._b.free_at},
                "sent": {"a": self._a.sent, "b": self._b.sent},
                "delivered": {"a": self._a.delivered,
                              "b": self._b.delivered}}

    def deserialize_state(self, state: dict) -> None:
        for d in (self._a, self._b):
            d.free_at = state["tx_free_at"][d.key]
            d.sent = state["sent"][d.key]
            d.delivered = state["delivered"][d.key]
