"""Latency-tolerant link channels between simulation shards.

SimBricks (PAPERS.md) couples independent component simulators through
message channels with synchronized virtual time: a simulator may run
ahead of its peers by up to the link latency, because a message sent at
time *t* can never need delivery before ``t + latency``.  This module is
that coupling layer for the reproduction's shards:

- :class:`ChannelHalf` is the shard-local end of a link whose other end
  lives in a different shard (usually a different OS process).  It is
  EtherLink-compatible on the transmit side — an attached
  :class:`~repro.nic.phy.EtherPort` calls ``transmit`` exactly as it
  would on a local cable — and computes the very same delivery tick an
  :class:`~repro.nic.phy.EtherLink` would: serialization at line rate
  on a per-direction busy horizon, plus the propagation delay.  Instead
  of scheduling the delivery locally it appends the frame to an
  *outbox*, batched per sync epoch.
- :class:`ChannelGroup` drives one shard's conservative synchronization:
  the shard advances its event queue to the next epoch horizon (at most
  ``quantum <= min link latency`` past the last synchronized point),
  drains every outbox, exchanges the batches with its peers, and injects
  the frames it received — each at its sender-computed delivery tick,
  which the quantum bound guarantees is still in this shard's future.

Determinism: frames inside one channel are ordered by a per-channel
sequence number, and a shard injects everything it received in one
epoch in ``(deliver_at, channel name, sequence)`` order, so delivery
scheduling does not depend on message arrival order on the wire.  The
delivery *ticks* are bit-identical to the single-process
:class:`EtherLink` by construction; the cross-process equivalence suite
(``tests/test_dist_shard_equivalence.py``) pins the end-to-end result.

The epoch machinery is split into ``begin_epoch`` / ``finish_epoch`` so
the identical code path runs under :class:`InProcessCoupler` (several
simulations coupled in one process) and under the multiprocess shard
runner in :mod:`repro.dist.shard`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.packet import MacAddress, Packet, serialization_ticks
from repro.sim.checkpoint import Stateful
from repro.sim.event_queue import EventPool
from repro.sim.ports import PacketPort
from repro.sim.simobject import SimObject, Simulation


class ChannelError(RuntimeError):
    """A link-channel protocol violation (quantum too large, epoch skew,
    delivery scheduled into the past)."""


#: A frame crossing a channel: (deliver_at tick, per-channel sequence,
#: encoded packet).  The tuple form is what crosses the process boundary.
ChannelFrame = Tuple[int, int, tuple]


def encode_frame(packet: Packet) -> tuple:
    """Flatten a packet for the process boundary (no live objects).

    Everything observable crosses except ``packet_id``, a process-local
    debugging counter: the receiving shard assigns a fresh one.
    """
    return (packet.wire_len, packet.dst.value, packet.src.value,
            packet.ethertype, packet.data, packet.ts_tx, packet.ts_offset,
            packet.request_id, dict(packet.meta) if packet.meta else None)


def decode_frame(data: tuple) -> Packet:
    """Rebuild a packet on the receiving shard."""
    wire_len, dst, src, ethertype, payload, ts_tx, ts_offset, req_id, \
        meta = data
    return Packet(wire_len, dst=MacAddress(dst), src=MacAddress(src),
                  ethertype=ethertype, data=payload, ts_tx=ts_tx,
                  ts_offset=ts_offset, request_id=req_id, meta=meta)


class ChannelHalf(Stateful, SimObject):
    """The shard-local end of one cross-shard link.

    Carries exactly one direction of traffic out (this shard's attached
    port transmitting toward the peer shard) and one direction in
    (frames the peer shard's half drained, injected at epoch
    boundaries).  The two halves of one link therefore mirror the two
    independent per-direction serialization horizons of a full-duplex
    :class:`~repro.nic.phy.EtherLink`.
    """

    def __init__(self, sim: Simulation, name: str, peer_shard: int,
                 bandwidth_bits_per_sec: float = 100e9,
                 delay_ticks: int = 0) -> None:
        super().__init__(sim, name)
        if bandwidth_bits_per_sec <= 0:
            raise ValueError("channel bandwidth must be positive")
        if delay_ticks <= 0:
            raise ValueError(
                "a cross-shard channel needs a positive link latency: "
                "the sync quantum is bounded by it")
        self.peer_shard = peer_shard
        self.bandwidth_bits_per_sec = bandwidth_bits_per_sec
        self.delay_ticks = delay_ticks
        #: Typed stand-in for the far shard's half of the cable, so the
        #: cross-shard edge appears in the wiring graph like any link.
        self.wire = PacketPort(self, "wire", external=True)
        self.port: Optional["EtherPort"] = None  # noqa: F821
        self._tx_free_at = 0
        self._outbox: List[ChannelFrame] = []
        self._out_seq = 0
        # Lifetime counters: the shard-level conservation law closes
        # over frames that left / entered through this half.
        self.frames_out = 0
        self.frames_in = 0
        # Injected frames not yet delivered are its pending firings.
        self._deliver_pool = EventPool(self._deliver, f"{name}.deliver")

    def invariant_failures(self, final: bool = True):
        """Channel sanity: no more frames in the outbox than were ever
        posted."""
        fails = []
        if len(self._outbox) > self.frames_out:
            fails.append(
                f"channel-sane: outbox holds {len(self._outbox)} frames "
                f"but only {self.frames_out} were ever posted")
        return fails

    # -- attachment ----------------------------------------------------------

    def attach(self, port: "EtherPort") -> None:  # noqa: F821
        """Wire a local device port to this end of the channel."""
        if port.link is not None:
            raise RuntimeError(f"{port.name} is already connected")
        self.wire.bind(port, link=self,
                       bandwidth_bits_per_sec=self.bandwidth_bits_per_sec,
                       delay_ticks=self.delay_ticks)
        port.link = self
        self.port = port

    # -- transmit side (EtherLink-compatible surface) ------------------------

    def transmit(self, src_port, packet: Packet) -> None:
        """Serialize at line rate, then post to the epoch outbox.

        The same timing arithmetic as :meth:`EtherLink.transmit`, through
        the one :func:`~repro.net.packet.serialization_ticks`: the
        delivery tick of a frame does not depend on whether the link was
        cut at a shard boundary.
        """
        start = max(self.now, self._tx_free_at)
        finish = start + serialization_ticks(packet.wire_len,
                                             self.bandwidth_bits_per_sec)
        self._tx_free_at = finish
        deliver_at = finish + self.delay_ticks
        self._outbox.append((deliver_at, self._out_seq,
                             encode_frame(packet)))
        self._out_seq += 1
        self.frames_out += 1

    def drain(self, horizon: int) -> List[ChannelFrame]:
        """Take the frames posted this epoch (the batch for the peer).

        The conservative-sync safety argument requires every drained
        frame to deliver strictly after ``horizon`` (the epoch
        boundary); a violation means the quantum exceeded the link
        latency somewhere, so fail loudly rather than corrupt time.
        """
        out, self._outbox = self._outbox, []
        for deliver_at, _seq, _frame in out:
            if deliver_at <= horizon:
                raise ChannelError(
                    f"{self.name}: frame delivers at {deliver_at}, not "
                    f"after the epoch boundary {horizon}; the sync "
                    f"quantum must not exceed the link latency "
                    f"{self.delay_ticks}")
        return out

    # -- receive side --------------------------------------------------------

    def inject(self, deliver_at: int, frame: tuple) -> None:
        """Schedule one received frame for local delivery."""
        if deliver_at <= self.now:
            raise ChannelError(
                f"{self.name}: peer frame delivers at {deliver_at} but "
                f"this shard is already at {self.now} (epoch skew)")
        self._deliver_pool.schedule_at(self.sim.events, deliver_at,
                                       decode_frame(frame))

    def _deliver(self, packet: Packet) -> None:
        if self.port is None:
            raise RuntimeError(f"{self.name} has no attached device port")
        self.frames_in += 1
        self.port.deliver(packet)

    # -- introspection -------------------------------------------------------

    def held(self) -> int:
        """Frames this half is responsible for that have not been
        handed to a device yet: posted-but-undrained plus
        injected-but-undelivered."""
        return len(self._outbox) + self._deliver_pool.pending

    # -- checkpoint support --------------------------------------------------

    state_fields = ("_tx_free_at", "_out_seq", "frames_out", "frames_in")


#: One epoch's outgoing batches, keyed by peer shard id: each entry is a
#: list of (channel name, frames) pairs.
EpochBatches = Dict[int, List[Tuple[str, List[ChannelFrame]]]]


class ChannelGroup:
    """One shard's synchronization driver over all its channel halves.

    Implements the conservative lookahead loop: the shard's clock may
    advance at most ``quantum`` past the last synchronized point, where
    ``quantum <= min(link latency)`` over every attached channel — the
    dist-gem5/SimBricks bound that makes peer frames always land in the
    local future.  Epochs are two-phase so transports can differ:

    - :meth:`begin_epoch` runs the event queue to the horizon and
      returns the per-peer outgoing batches;
    - :meth:`finish_epoch` takes everything received for that epoch and
      injects it in deterministic ``(deliver_at, channel, seq)`` order.

    A shard with no channels degenerates to plain ``sim.run``.
    """

    def __init__(self, sim: Simulation, halves: Sequence[ChannelHalf],
                 quantum_ticks: Optional[int] = None) -> None:
        self.sim = sim
        self.halves = list(halves)
        self.by_name: Dict[str, ChannelHalf] = {}
        for half in self.halves:
            if half.name in self.by_name:
                raise ChannelError(f"duplicate channel name {half.name!r}")
            self.by_name[half.name] = half
        if self.halves:
            min_latency = min(h.delay_ticks for h in self.halves)
            self.quantum_ticks = (quantum_ticks if quantum_ticks is not None
                                  else min_latency)
            if self.quantum_ticks <= 0:
                raise ChannelError("sync quantum must be positive")
            if self.quantum_ticks > min_latency:
                raise ChannelError(
                    f"sync quantum {self.quantum_ticks} exceeds the "
                    f"minimum channel latency {min_latency}: peer frames "
                    f"could arrive in this shard's past")
        else:
            self.quantum_ticks = quantum_ticks or 1
        self.sync_time = sim.now
        self.epoch = 0

    def neighbors(self) -> List[int]:
        """Peer shard ids this shard exchanges epochs with, sorted."""
        return sorted({h.peer_shard for h in self.halves})

    def next_horizon(self, target: int) -> int:
        return min(self.sync_time + self.quantum_ticks, target)

    def begin_epoch(self, horizon: int) -> EpochBatches:
        """Run local events up to ``horizon`` and drain every outbox."""
        if horizon <= self.sync_time and self.halves:
            raise ChannelError(
                f"epoch horizon {horizon} does not advance past the "
                f"synchronized time {self.sync_time}")
        self.sim.run(until=horizon)
        batches: EpochBatches = {peer: [] for peer in self.neighbors()}
        for half in self.halves:
            batches[half.peer_shard].append((half.name,
                                             half.drain(horizon)))
        return batches

    def finish_epoch(self, horizon: int,
                     incoming: Sequence[Tuple[str, List[ChannelFrame]]]
                     ) -> int:
        """Inject the frames received for this epoch; returns the count.

        Injection order is independent of which peer's message arrived
        first: all frames of the epoch are sorted by
        ``(deliver_at, channel name, per-channel sequence)`` before
        scheduling, so the receiving event queue is deterministic.
        """
        entries = []
        for channel_name, frames in incoming:
            half = self.by_name.get(channel_name)
            if half is None:
                raise ChannelError(
                    f"received frames for unknown channel "
                    f"{channel_name!r}; shard plans out of sync?")
            for deliver_at, seq, frame in frames:
                entries.append((deliver_at, channel_name, seq, frame))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        for deliver_at, channel_name, _seq, frame in entries:
            self.by_name[channel_name].inject(deliver_at, frame)
        self.sync_time = horizon
        self.epoch += 1
        return len(entries)

    def advance(self, target: int,
                exchange: Callable[[int, int, EpochBatches],
                                   List[Tuple[str, List[ChannelFrame]]]]
                ) -> None:
        """Advance to ``target`` in epoch steps, calling ``exchange``
        with ``(epoch index, horizon, outgoing batches)`` at each
        boundary; it must return this shard's incoming batches for the
        same epoch (the multiprocess transport lives there)."""
        if not self.halves:
            # A shard with no cross-shard links has nothing to
            # synchronize on: run straight to the target.
            self.sim.run(until=target)
            self.sync_time = target
            return
        while self.sync_time < target:
            horizon = self.next_horizon(target)
            outgoing = self.begin_epoch(horizon)
            incoming = exchange(self.epoch, horizon, outgoing)
            self.finish_epoch(horizon, incoming)


class InProcessCoupler:
    """Run several shards' channel groups in lockstep in one process.

    The in-process coupler: dist-gem5-style simulations (paper Fig 1a)
    sharing one Python process, with no processes or queues — each
    group's outgoing batches route straight into the peer group.  The
    per-epoch code path (``begin_epoch`` / ``finish_epoch``) is exactly
    what the multiprocess shard runner drives, so properties proven here
    hold for the real transport too.
    """

    def __init__(self, groups: Dict[int, ChannelGroup]) -> None:
        self.groups = dict(groups)
        quanta = {g.quantum_ticks for g in self.groups.values()
                  if g.halves}
        if len(quanta) > 1:
            raise ChannelError(
                f"coupled shards disagree on the sync quantum: {quanta}")

    def advance(self, target: int) -> None:
        """Advance every shard to ``target`` in synchronized epochs."""
        while any(g.sync_time < target for g in self.groups.values()):
            outgoing = {}
            horizons = {}
            for shard_id, group in self.groups.items():
                horizon = group.next_horizon(target)
                horizons[shard_id] = horizon
                outgoing[shard_id] = group.begin_epoch(horizon)
            for shard_id, group in self.groups.items():
                incoming = []
                for src_id, batches in outgoing.items():
                    if src_id != shard_id:
                        incoming.extend(batches.get(shard_id, []))
                group.finish_epoch(horizons[shard_id], incoming)
