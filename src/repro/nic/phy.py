"""Ethernet ports and links.

An :class:`EtherLink` is the direct cable between two :class:`EtherPort`
endpoints (Test Node NIC on one side, EtherLoadGen or a Drive Node NIC on
the other — Fig 1).  The link serializes frames at line rate and delivers
them after the configured propagation latency (Table I: 100Gbps, 200us).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet, serialization_ticks
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
        # (direction, source port, destination port), set by connect().
        self._directions: tuple = ()
        # Independent serialization horizon per direction (full duplex).
        self._tx_free_at = {"a": 0, "b": 0}
        # Frames accepted for transmission but not yet delivered, per
        # direction.  Lifetime accounting: lets the link-conservation
        # invariant hold exactly at any instant.
        self._in_flight = {"a": 0, "b": 0}
        self._sent = {"a": 0, "b": 0}
        self._delivered = {"a": 0, "b": 0}
        # Both directions, in the measurement window.
        self.bytes_carried = 0
        # Pooled per-frame delivery events (see EventPool): same firing
        # order as a fresh event per frame, no allocation.
        self._deliver_pool = EventPool(self._deliver, f"{name}.deliver")

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
        self._directions = (("a", port_a, port_b), ("b", port_b, port_a))
        port_a.link = self
        port_b.link = self

    def invariant_failures(self, final: bool = True):
        """Frame conservation: the wire loses nothing, so every frame the
        link accepts is either still serializing/propagating or has been
        delivered to the peer.  Nothing to check until connected.

        The equality is over the link's *own* lifetime counters, not the
        port counters: unit tests legitimately call ``port.deliver()``
        out-of-band, and a port may be driven by several sources.  The
        port counters are coupled by inequalities instead — out-of-band
        traffic can only add to them."""
        fails = []
        for direction, src, dst in self._directions:
            sent = self._sent[direction]
            delivered = self._delivered[direction]
            in_flight = self._in_flight[direction]
            if in_flight < 0:
                fails.append(f"frame-conservation: direction {direction}: "
                             f"negative in-flight count {in_flight}")
            if sent != delivered + in_flight:
                fails.append(
                    f"frame-conservation: direction {direction}: accepted "
                    f"{sent} frames but delivered {delivered} with "
                    f"{in_flight} in flight")
            if src.frames_sent < sent:
                fails.append(
                    f"frame-conservation: {src.name} sent "
                    f"{src.frames_sent} frames but the link carried {sent} "
                    f"from it")
            if dst.frames_received < delivered:
                fails.append(
                    f"frame-conservation: {dst.name} received "
                    f"{dst.frames_received} frames but the link delivered "
                    f"{delivered} to it")
        return fails

    def transmit(self, src_port: EtherPort, packet: Packet) -> None:
        """Serialize the frame at line rate, then deliver after the
        propagation delay."""
        if src_port is self._port_a:
            direction, dst = "a", self._port_b
        elif src_port is self._port_b:
            direction, dst = "b", self._port_a
        else:
            raise ValueError(f"{src_port.name} is not attached to {self.name}")
        if dst is None:
            raise RuntimeError(f"{self.name} has a dangling end")
        start = max(self.now, self._tx_free_at[direction])
        finish = start + serialization_ticks(packet.wire_len,
                                             self.bandwidth_bits_per_sec)
        self._tx_free_at[direction] = finish
        self.bytes_carried += packet.wire_len
        self._sent[direction] += 1
        self._in_flight[direction] += 1
        self._deliver_pool.schedule_at(self.sim.events,
                                       finish + self.delay_ticks,
                                       (packet, dst, direction))

    def _deliver(self, payload) -> None:
        packet, dst, direction = payload
        self._in_flight[direction] -= 1
        self._delivered[direction] += 1
        dst.deliver(packet)

    def held(self) -> int:
        """Frames on the wire, both directions."""
        return self._in_flight["a"] + self._in_flight["b"]

    # -- checkpoint support --------------------------------------------------

    measured_fields = ("bytes_carried",)

    # Busy horizons, window and lifetime frame counters; frames still on
    # the wire (held()) would need their payloads serialized, so the
    # link is checkpointed only once they have landed.
    state_fields = ("_tx_free_at", "_sent", "_delivered") + measured_fields
