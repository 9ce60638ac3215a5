"""Multi-node switch fabrics: output-queued switches and topologies.

The paper's setup is one host behind one load generator; datacenter
evaluation needs many hosts behind a switch fabric.  This module adds:

- :class:`OutputQueuedSwitch`: a store-and-forward switch SimObject
  with one bounded FIFO per output port, ECMP hashing on the flow
  5-tuple across equal-cost uplinks, and per-cause drop accounting
  wired into the invariant registry;
- :class:`FabricHost`: a lightweight flow endpoint whose DPDK/kernel
  personality is a per-frame service cost derived from the measured
  per-packet cycle costs of the full single-node models;
- declarative :func:`build_fat_tree` / :func:`build_leaf_spine`
  builders on top of :class:`~repro.system.topology.Topology`, wired
  entirely through typed ports and :class:`~repro.nic.phy.EtherLink`;
- :class:`Fabric`: the container with drain / checkpoint / restore
  mirroring :class:`repro.system.node._BaseNode`, so the warm-up cache
  and the sweep executor treat a 20-switch fat-tree exactly like a
  single node.

Timing model: a frame that arrives on an input port is forwarded after
``forward_latency_ns``, then serialized onto the chosen output at port
rate (the output FIFO drains at line rate).  Because departures are
spaced at least one serialization time apart, the attached
:class:`EtherLink` never queues behind itself — congestion shows up in
the switch FIFOs, where it is counted and bounded, not on the wire.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.loadgen.flowgen import Flow, FlowTrafficGenerator
from repro.net.packet import (
    ETHER_CRC_LEN,
    ETHER_HEADER_LEN,
    ETHER_MIN_FRAME,
    ETHERTYPE_EXPERIMENTAL,
    MacAddress,
    Packet,
)
from repro.nic.phy import EtherLink, EtherPort
from repro.sim.channel import ChannelHalf
from repro.sim.checkpoint import CheckpointError, seal, verify
from repro.sim.event_queue import EventPool, batching_enabled
from repro.sim.simobject import SimObject, Simulation
from repro.sim.ticks import ns_to_ticks, us_to_ticks

# Drop-cause taxonomy (see docs/fabrics.md): every lost frame is charged
# to exactly one cause, and conservation invariants close over them.
DROP_SWITCH_QUEUE = "switch-queue-full"
DROP_SWITCH_NO_ROUTE = "switch-no-route"
DROP_HOST_QUEUE = "host-queue-full"
DROP_CAUSES = (DROP_SWITCH_QUEUE, DROP_SWITCH_NO_ROUTE, DROP_HOST_QUEUE)

#: Locally-administered MAC prefix for fabric hosts: host ``h`` is
#: ``02:00:00:00:xx:xx`` with ``h`` in the low bytes.
FABRIC_MAC_BASE = 0x02_00_00_00_00_00


def host_mac(host_id: int) -> MacAddress:
    return MacAddress(FABRIC_MAC_BASE + host_id)


def ecmp_hash(five_tuple: Sequence, salt: str = "") -> int:
    """Deterministic 64-bit hash of a flow 5-tuple.

    SHA-256 based (never Python's salted ``hash()``), so path choice is
    stable across processes and runs; ``salt`` decorrelates hash
    functions between switch tiers so one unlucky flow pairing does not
    collide on every level of the fabric.
    """
    blob = salt + "|" + "|".join(str(x) for x in five_tuple)
    return int.from_bytes(
        hashlib.sha256(blob.encode("utf-8")).digest()[:8], "big")


def ecmp_select(five_tuple: Sequence, choices: Sequence[int],
                salt: str = "") -> int:
    """Pick one of ``choices`` for the flow — permutation-stable: the
    result depends on the *set* of candidates, not their order."""
    ordered = sorted(choices)
    return ordered[ecmp_hash(five_tuple, salt) % len(ordered)]


def packet_five_tuple(packet: Packet) -> Tuple:
    """The hash input for a frame: flow 5-tuple when present, else the
    MAC pair (so non-flow traffic still ECMPs deterministically)."""
    meta = packet.meta
    if "flow5" in meta:
        return meta["flow5"]
    return (packet.src.value, packet.dst.value, packet.ethertype)


@dataclass(frozen=True)
class SwitchConfig:
    """Geometry and timing of one output-queued switch."""

    radix: int = 4
    queue_capacity: int = 64           # frames per output FIFO
    forward_latency_ns: float = 500.0  # lookup + crossbar traversal
    bandwidth_bits_per_sec: float = 100e9

    def __post_init__(self) -> None:
        if self.radix < 2:
            raise ValueError("switch radix must be at least 2")
        if self.queue_capacity < 1:
            raise ValueError("output queue capacity must be at least 1")
        if self.bandwidth_bits_per_sec <= 0:
            raise ValueError("switch port bandwidth must be positive")


class OutputQueuedSwitch(SimObject):
    """Store-and-forward switch with per-output bounded FIFOs.

    Forwarding is table-driven: :meth:`add_route` maps a destination
    MAC to one or more equal-cost output ports, :meth:`set_default_route`
    supplies the up-ports used for everything non-local, and multi-port
    routes are resolved by ECMP on the 5-tuple (salted with the switch
    name).  A frame that finds its output FIFO full is dropped and
    charged to :data:`DROP_SWITCH_QUEUE`; a frame with no route is
    charged to :data:`DROP_SWITCH_NO_ROUTE`.  The switch's conservation
    law (``rx == tx + drops + queued``) is registered as a strict
    invariant over lifetime counters.
    """

    def __init__(self, sim: Simulation, name: str,
                 config: SwitchConfig) -> None:
        super().__init__(sim, name)
        self.config = config
        self.forward_latency_ticks = ns_to_ticks(config.forward_latency_ns)
        self.ports: List[EtherPort] = []
        for i in range(config.radix):
            port = EtherPort(f"{name}.p{i}", self._receiver(i), owner=self)
            # Numbered attributes so ports_of()/Topology DOT see them.
            setattr(self, f"p{i}", port)
            self.ports.append(port)
        self._routes: Dict[int, Tuple[int, ...]] = {}
        self._default_route: Tuple[int, ...] = ()
        self._queued = [0] * config.radix
        self._free_at = [0] * config.radix
        # Lifetime counters (never reset) close the conservation law;
        # the stat counters below are the per-measurement window view.
        self._rx = 0
        self._tx = 0
        self._drops = {DROP_SWITCH_QUEUE: 0, DROP_SWITCH_NO_ROUTE: 0}
        self.stat_rx = self.stats.counter("rx_frames", "frames received")
        self.stat_tx = self.stats.counter("tx_frames", "frames forwarded")
        self.stat_drops = {
            DROP_SWITCH_QUEUE: self.stats.counter(
                "drop.queue_full", "frames dropped: output FIFO full"),
            DROP_SWITCH_NO_ROUTE: self.stats.counter(
                "drop.no_route", "frames dropped: no route for dst"),
        }
        self.stat_queue_peak = self.stats.counter(
            "queue_peak", "deepest output FIFO occupancy seen")
        self._event_pools = batching_enabled()
        self._depart_pool = EventPool(self._depart_pooled, f"{name}.depart")
        self._register_invariants()

    def _receiver(self, index: int) -> Callable[[Packet], None]:
        def on_receive(packet: Packet, _index: int = index) -> None:
            self._on_receive(_index, packet)
        return on_receive

    def _register_invariants(self) -> None:
        switch = self

        def conservation(final: bool):
            fails = []
            queued = 0
            for i, depth in enumerate(switch._queued):
                queued += depth
                if depth < 0:
                    fails.append(f"output {i}: negative queue depth {depth}")
                elif depth > switch.config.queue_capacity:
                    fails.append(
                        f"output {i}: queue depth {depth} exceeds capacity "
                        f"{switch.config.queue_capacity}")
            dropped = sum(switch._drops.values())
            if switch._rx != switch._tx + dropped + queued:
                fails.append(
                    f"received {switch._rx} != forwarded {switch._tx} + "
                    f"dropped {dropped} + queued {queued}")
            return fails

        self.sim.invariants.register(f"{self.name}.conservation",
                                     conservation, strict=True)

    # -- routing -------------------------------------------------------------

    def add_route(self, dst: MacAddress, out_ports: Sequence[int]) -> None:
        """Route ``dst`` over the given equal-cost output ports."""
        for p in out_ports:
            if not 0 <= p < self.config.radix:
                raise ValueError(f"{self.name}: no output port {p}")
        self._routes[dst.value] = tuple(out_ports)

    def set_default_route(self, out_ports: Sequence[int]) -> None:
        """ECMP up-ports for destinations with no specific route."""
        for p in out_ports:
            if not 0 <= p < self.config.radix:
                raise ValueError(f"{self.name}: no output port {p}")
        self._default_route = tuple(out_ports)

    def route_for(self, packet: Packet) -> Optional[int]:
        """The output port this frame would take (None = no route)."""
        outs = self._routes.get(packet.dst.value, self._default_route)
        if not outs:
            return None
        if len(outs) == 1:
            return outs[0]
        return ecmp_select(packet_five_tuple(packet), outs, salt=self.name)

    # -- datapath ------------------------------------------------------------

    def serialization_ticks(self, packet: Packet) -> int:
        wire_bits = (packet.wire_len + 20) * 8
        return round(wire_bits * 1e12 / self.config.bandwidth_bits_per_sec)

    def _on_receive(self, in_port: int, packet: Packet) -> None:
        self._rx += 1
        self.stat_rx.inc()
        out = self.route_for(packet)
        if out is None:
            self._drop(packet, DROP_SWITCH_NO_ROUTE)
            return
        if self._queued[out] >= self.config.queue_capacity:
            self._drop(packet, DROP_SWITCH_QUEUE, out=out)
            return
        self._queued[out] += 1
        if self._queued[out] > self.stat_queue_peak.value:
            self.stat_queue_peak.inc(
                self._queued[out] - self.stat_queue_peak.value)
        start = max(self.now + self.forward_latency_ticks,
                    self._free_at[out])
        finish = start + self.serialization_ticks(packet)
        self._free_at[out] = finish
        if self._event_pools:
            self._depart_pool.schedule_at(self.sim.events, finish,
                                          (out, packet))
            return

        def _depart(o=out, p=packet):
            self._depart(o, p)

        self.sim.events.call_at(finish, _depart, name=f"{self.name}.depart")

    def _depart_pooled(self, payload) -> None:
        out, packet = payload
        self._depart(out, packet)

    def _depart(self, out: int, packet: Packet) -> None:
        self._queued[out] -= 1
        self._tx += 1
        self.stat_tx.inc()
        self.ports[out].send(packet)

    def _drop(self, packet: Packet, cause: str, out: Optional[int] = None) -> None:
        self._drops[cause] += 1
        self.stat_drops[cause].inc()
        if self.sim.tracer.enabled:
            self.trace("fabric", "drop", cause=cause, out=out,
                       dst=str(packet.dst))

    # -- introspection -------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Frames currently queued across all outputs."""
        return sum(self._queued)

    def drop_counts(self) -> Dict[str, int]:
        """Per-cause drops in the current measurement window."""
        return {cause: counter.value
                for cause, counter in self.stat_drops.items()
                if counter.value}

    # -- checkpoint support --------------------------------------------------

    def serialize_state(self) -> dict:
        if self.occupancy:
            raise CheckpointError(
                f"switch {self.name} has {self.occupancy} frames queued; "
                f"checkpoints require a drained fabric")
        return {
            "free_at": list(self._free_at),
            "rx": self._rx,
            "tx": self._tx,
            "drops": dict(self._drops),
            "port_counters": [[p.frames_sent, p.frames_received]
                              for p in self.ports],
        }

    def deserialize_state(self, state: dict) -> None:
        self._free_at = list(state["free_at"])
        self._rx = state["rx"]
        self._tx = state["tx"]
        self._drops = {DROP_SWITCH_QUEUE: 0, DROP_SWITCH_NO_ROUTE: 0}
        self._drops.update(state["drops"])
        self._queued = [0] * self.config.radix
        for port, (sent, received) in zip(self.ports,
                                          state["port_counters"]):
            port.frames_sent = sent
            port.frames_received = received


class FabricHost(SimObject):
    """A flow endpoint at a fabric leaf.

    Much lighter than the full single-node models: the DPDK or kernel
    personality is collapsed into ``service_ticks`` per received frame
    (derived from the per-packet cycle costs in
    :class:`repro.cpu.kernels.KernelCosts`), with a bounded RX queue in
    front of the service loop — so a kernel host saturates and drops
    (:data:`DROP_HOST_QUEUE`) at offered loads a DPDK host absorbs,
    preserving the paper's stack contrast at fabric scale.

    Sending a flow segments it into MTU frames and hands them to the
    Ethernet port; the attached link's serialization horizon paces them
    at line rate.  The destination host counts segments and reports the
    flow's completion to the generator when the last one is serviced.
    """

    def __init__(self, sim: Simulation, name: str, host_id: int, group: int,
                 service_ticks: int, queue_capacity: int = 256,
                 mtu_bytes: int = 1518) -> None:
        super().__init__(sim, name)
        self.host_id = host_id
        self.group = group
        self.mac = host_mac(host_id)
        self.service_ticks = max(1, int(service_ticks))
        self.queue_capacity = queue_capacity
        self.mtu_bytes = mtu_bytes
        self.port = EtherPort(f"{name}.port", self._on_receive, owner=self)
        self.peer_macs: List[MacAddress] = []
        self.on_flow_complete: Optional[Callable[[dict, int], None]] = None
        self._rx_queued = 0
        self._svc_free_at = 0
        self._flow_rx: Dict[int, int] = {}
        self._tx_frames = 0
        self._rx_frames = 0
        self._processed = 0
        self._dropped = 0
        self.stat_tx = self.stats.counter("tx_frames", "frames sent")
        self.stat_rx = self.stats.counter("rx_frames", "frames received")
        self.stat_processed = self.stats.counter(
            "processed", "frames fully serviced by the stack")
        self.stat_drop_queue = self.stats.counter(
            "drop.queue_full", "frames dropped: host RX queue overrun")
        self._event_pools = batching_enabled()
        self._service_pool = EventPool(self._service_pooled,
                                       f"{name}.service")
        self._register_invariants()

    def _register_invariants(self) -> None:
        host = self

        def conservation(final: bool):
            fails = []
            if not 0 <= host._rx_queued <= host.queue_capacity:
                fails.append(f"RX queue depth {host._rx_queued} outside "
                             f"[0, {host.queue_capacity}]")
            if host._rx_frames != (host._processed + host._dropped
                                   + host._rx_queued):
                fails.append(
                    f"received {host._rx_frames} != processed "
                    f"{host._processed} + dropped {host._dropped} + "
                    f"queued {host._rx_queued}")
            return fails

        self.sim.invariants.register(f"{self.name}.conservation",
                                     conservation, strict=True)

    def set_peers(self, macs: Sequence[MacAddress]) -> None:
        """Host-index -> MAC resolution table (set by the builder)."""
        self.peer_macs = list(macs)

    # -- transmit ------------------------------------------------------------

    def send_flow(self, flow: Flow) -> None:
        """Segment a flow into frames and queue them on the port.

        All segments are handed to the link at once; its serialization
        horizon spaces them at line rate, which models a host NIC
        draining a ready TX ring.
        """
        dst_mac = self.peer_macs[flow.dst]
        payload_per_frame = self.mtu_bytes - ETHER_HEADER_LEN - ETHER_CRC_LEN
        nsegs = max(1, -(-flow.size_bytes // payload_per_frame))
        remaining = flow.size_bytes
        for seg in range(nsegs):
            chunk = min(remaining, payload_per_frame)
            remaining -= chunk
            wire_len = max(ETHER_MIN_FRAME,
                           chunk + ETHER_HEADER_LEN + ETHER_CRC_LEN)
            packet = Packet(
                wire_len, dst=dst_mac, src=self.mac,
                ethertype=ETHERTYPE_EXPERIMENTAL,
                meta={
                    "flow": flow.flow_id,
                    "flow5": flow.five_tuple,
                    "src": flow.src,
                    "dst": flow.dst,
                    "size": flow.size_bytes,
                    "start": flow.start_tick,
                    "nsegs": nsegs,
                    "seg": seg,
                })
            self._tx_frames += 1
            self.stat_tx.inc()
            self.port.send(packet)

    # -- receive -------------------------------------------------------------

    def _on_receive(self, packet: Packet) -> None:
        self._rx_frames += 1
        self.stat_rx.inc()
        if self._rx_queued >= self.queue_capacity:
            self._dropped += 1
            self.stat_drop_queue.inc()
            return
        self._rx_queued += 1
        start = max(self.now, self._svc_free_at)
        finish = start + self.service_ticks
        self._svc_free_at = finish
        if self._event_pools:
            self._service_pool.schedule_at(self.sim.events, finish, packet)
            return

        def _service(p=packet):
            self._service(p)

        self.sim.events.call_at(finish, _service, name=f"{self.name}.service")

    def _service_pooled(self, packet: Packet) -> None:
        self._service(packet)

    def _service(self, packet: Packet) -> None:
        self._rx_queued -= 1
        self._processed += 1
        self.stat_processed.inc()
        meta = packet.meta
        flow_id = meta.get("flow")
        if flow_id is None:
            return
        got = self._flow_rx.get(flow_id, 0) + 1
        if got >= meta["nsegs"]:
            self._flow_rx.pop(flow_id, None)
            if self.on_flow_complete is not None:
                self.on_flow_complete(meta, self.now)
        else:
            self._flow_rx[flow_id] = got

    # -- introspection -------------------------------------------------------

    def quiescent(self) -> bool:
        return self._rx_queued == 0

    def drop_counts(self) -> Dict[str, int]:
        value = self.stat_drop_queue.value
        return {DROP_HOST_QUEUE: value} if value else {}

    # -- checkpoint support --------------------------------------------------

    def serialize_state(self) -> dict:
        if self._rx_queued:
            raise CheckpointError(
                f"host {self.name} has {self._rx_queued} frames awaiting "
                f"service; checkpoints require a drained fabric")
        return {
            "svc_free_at": self._svc_free_at,
            "tx": self._tx_frames,
            "rx": self._rx_frames,
            "processed": self._processed,
            "dropped": self._dropped,
            "port_frames_sent": self.port.frames_sent,
            "port_frames_received": self.port.frames_received,
            # Flows that will never complete (a segment was dropped)
            # keep their partial counts across a checkpoint.
            "flow_rx": {str(k): v for k, v in self._flow_rx.items()},
        }

    def deserialize_state(self, state: dict) -> None:
        self.port.frames_sent = state["port_frames_sent"]
        self.port.frames_received = state["port_frames_received"]
        self._svc_free_at = state["svc_free_at"]
        self._tx_frames = state["tx"]
        self._rx_frames = state["rx"]
        self._processed = state["processed"]
        self._dropped = state["dropped"]
        self._flow_rx = {int(k): v for k, v in state["flow_rx"].items()}
        self._rx_queued = 0


@dataclass(frozen=True)
class FabricConfig:
    """Declarative description of one switch fabric.

    ``topology`` selects the builder: ``"fat_tree"`` uses ``k`` (even;
    ``k**3 / 4`` hosts, ``5 * k**2 / 4`` switches), ``"leaf_spine"``
    uses ``leaves`` x ``spines`` with ``hosts_per_leaf`` hosts each.
    ``host_service_ns`` is the per-frame stack cost; the harness derives
    it from the :class:`~repro.cpu.kernels.KernelCosts` of the platform
    config when left at 0.
    """

    topology: str = "fat_tree"
    k: int = 4
    leaves: int = 4
    spines: int = 2
    hosts_per_leaf: int = 4
    stack: str = "dpdk"
    link_bandwidth_bps: float = 100e9
    link_delay_ns: float = 1000.0
    queue_capacity: int = 64
    forward_latency_ns: float = 500.0
    host_service_ns: float = 0.0
    host_queue_capacity: int = 256
    mtu_bytes: int = 1518

    def __post_init__(self) -> None:
        if self.topology not in ("fat_tree", "leaf_spine"):
            raise ValueError(
                f"unknown fabric topology {self.topology!r}; choose "
                f"'fat_tree' or 'leaf_spine'")
        if self.topology == "fat_tree" and (self.k < 2 or self.k % 2):
            raise ValueError("fat-tree k must be an even number >= 2")
        if self.stack not in ("dpdk", "kernel"):
            raise ValueError(f"unknown stack {self.stack!r}")

    def canonical_dict(self) -> dict:
        return asdict(self)

    @property
    def n_hosts(self) -> int:
        if self.topology == "fat_tree":
            return self.k ** 3 // 4
        return self.leaves * self.hosts_per_leaf


class _RemotePort:
    """Name-and-owner placeholder for a port that lives in another shard."""

    __slots__ = ("name", "shard")

    def __init__(self, name: str, shard: int) -> None:
        self.name = name
        self.shard = shard


class _RemoteHostStub:
    """Placeholder for a host owned by another shard.

    Keeps host indexing, group membership and MAC resolution identical
    to the single-process build (the replicated flow generator and the
    routing tables need all of those), while costing nothing to
    simulate: it owns no SimObject, no ports, no events.
    """

    def __init__(self, name: str, host_id: int, group: int,
                 shard: int) -> None:
        self.name = name
        self.host_id = host_id
        self.group = group
        self.shard = shard
        self.mac = host_mac(host_id)
        self.port = _RemotePort(f"{name}.port", shard)
        self.on_flow_complete = None

    def set_peers(self, macs: Sequence[MacAddress]) -> None:
        pass


class _RemoteSwitchStub:
    """Placeholder for a switch owned by another shard.

    Exposes just enough surface for the builders to wire and route
    around it — a ports list and no-op route installation."""

    def __init__(self, name: str, radix: int, shard: int) -> None:
        self.name = name
        self.shard = shard
        self.ports = [_RemotePort(f"{name}.p{i}", shard)
                      for i in range(radix)]

    def add_route(self, dst: MacAddress, out_ports: Sequence[int]) -> None:
        pass

    def set_default_route(self, out_ports: Sequence[int]) -> None:
        pass


class Fabric:
    """A built fabric: hosts + switches + links + the wiring graph.

    Mirrors the :class:`repro.system.node._BaseNode` control surface —
    ``run_us`` / ``reset_measurement`` / ``checkpoint`` / ``restore`` —
    so the warm-up cache, the sweep executor and the CLI drive a fabric
    exactly like a single node.

    With a ``shard_plan`` (see :mod:`repro.dist.shard`) the builders
    construct only this shard's slice of the topology: remote hosts and
    switches become lightweight stubs (indexing and routing stay
    byte-identical to the full build), and every link whose far endpoint
    is remote becomes a :class:`~repro.sim.channel.ChannelHalf` under
    the same link name — the SimBricks-style boundary the shard runner
    synchronizes over.  ``hosts`` / ``switches`` keep full-topology
    indexing (stubs included); ``local_hosts`` / ``local_switches`` are
    the simulated subset every aggregate below reads.
    """

    def __init__(self, sim: Simulation, config: FabricConfig,
                 label: str, shard_plan=None, shard_id: int = 0) -> None:
        self.sim = sim
        self.config = config
        self.label = label
        self.shard_plan = shard_plan
        self.shard_id = shard_id
        from repro.system.topology import Topology
        self.topology = Topology(label)
        self.hosts: List[FabricHost] = []
        self.switches: List[OutputQueuedSwitch] = []
        self.local_hosts: List[FabricHost] = []
        self.local_switches: List[OutputQueuedSwitch] = []
        self.links: List[EtherLink] = []
        self.channels: List[ChannelHalf] = []
        self.generator: Optional[FlowTrafficGenerator] = None

    # -- construction helpers (used by the builders) -------------------------

    def _host_owner(self, host_id: int) -> int:
        if self.shard_plan is None:
            return self.shard_id
        return self.shard_plan.host_shard(host_id)

    def _switch_owner(self, full_name: str) -> int:
        if self.shard_plan is None:
            return self.shard_id
        logical = full_name[len(self.label) + 1:]
        return self.shard_plan.switch_shard(logical)

    def _add_host(self, host: FabricHost) -> FabricHost:
        self.hosts.append(host)
        self.local_hosts.append(host)
        self.topology.add(host.name, host)
        return host

    def _add_switch(self, switch: OutputQueuedSwitch) -> OutputQueuedSwitch:
        self.switches.append(switch)
        self.local_switches.append(switch)
        self.topology.add(switch.name, switch)
        return switch

    def _switch(self, name: str, radix: int):
        """Build a switch — real when this shard owns it, stub otherwise."""
        owner = self._switch_owner(name)
        if owner != self.shard_id:
            stub = _RemoteSwitchStub(name, radix, owner)
            self.switches.append(stub)
            return stub
        return self._add_switch(OutputQueuedSwitch(
            self.sim, name, _switch_config(self.config, radix)))

    def _link(self, name: str, a: EtherPort, b: EtherPort):
        """Wire two ports: an :class:`EtherLink` when both endpoints are
        local, a :class:`ChannelHalf` when exactly one is, nothing when
        the link lies entirely in other shards."""
        a_remote = isinstance(a, _RemotePort)
        b_remote = isinstance(b, _RemotePort)
        if a_remote and b_remote:
            return None
        if not a_remote and not b_remote:
            link = EtherLink(
                self.sim, name,
                bandwidth_bits_per_sec=self.config.link_bandwidth_bps,
                delay_ticks=ns_to_ticks(self.config.link_delay_ns))
            link.connect(a, b)
            self.links.append(link)
            self.topology.add(name, link)
            return link
        local_port, remote_port = (b, a) if a_remote else (a, b)
        half = ChannelHalf(
            self.sim, name, peer_shard=remote_port.shard,
            bandwidth_bits_per_sec=self.config.link_bandwidth_bps,
            delay_ticks=ns_to_ticks(self.config.link_delay_ns))
        half.attach(local_port)
        self.channels.append(half)
        self.topology.add(name, half)
        return half

    def _finish_build(self) -> None:
        macs = [h.mac for h in self.hosts]
        for h in self.hosts:
            h.set_peers(macs)
        self._register_invariants()

    def _register_invariants(self) -> None:
        fabric = self

        def flow_conservation(final: bool):
            # Exact only once every FIFO and wire has drained, so it
            # asserts at final check time at quiescence.  Sharded, the
            # law closes over the channel boundary: frames entering this
            # shard (local sends + channel ingress) equal frames leaving
            # it (serviced + dropped + channel egress).
            if not final or not fabric.quiescent():
                return None
            sent = sum(h._tx_frames for h in fabric.local_hosts)
            processed = sum(h._processed for h in fabric.local_hosts)
            host_drops = sum(h._dropped for h in fabric.local_hosts)
            switch_drops = sum(sum(s._drops.values())
                               for s in fabric.local_switches)
            ch_in = sum(c.frames_in for c in fabric.channels)
            ch_out = sum(c.frames_out for c in fabric.channels)
            if sent + ch_in != processed + host_drops + switch_drops + ch_out:
                return [
                    f"sent {sent} + channel-in {ch_in} != processed "
                    f"{processed} + host drops {host_drops} + switch drops "
                    f"{switch_drops} + channel-out {ch_out}"]
            return None

        self.sim.invariants.register(f"{self.label}.flow-conservation",
                                     flow_conservation)

    def attach_generator(self, generator: FlowTrafficGenerator) -> None:
        if self.generator is not None:
            raise RuntimeError(f"{self.label} already has a generator")
        self.generator = generator
        self.topology.add("flowgen", generator)
        for host in self.local_hosts:
            host.on_flow_complete = generator.flow_completed

    # -- introspection -------------------------------------------------------

    def host_groups(self) -> List[int]:
        return [h.group for h in self.hosts]

    def validate_wiring(self) -> None:
        self.topology.validate()

    def wiring_dot(self) -> str:
        return self.topology.to_dot()

    def quiescent(self) -> bool:
        """No frame anywhere: switch FIFOs, host RX queues, wires, and
        (sharded) the channel boundary this shard is responsible for."""
        return (all(s.occupancy == 0 for s in self.local_switches)
                and all(h.quiescent() for h in self.local_hosts)
                and all(count == 0
                        for link in self.links
                        for count in link._in_flight.values())
                and all(half.in_flight == 0 for half in self.channels))

    def per_switch_drops(self) -> Dict[str, Dict[str, int]]:
        """Window drop counts by switch name and cause (nonzero only)."""
        out = {}
        for s in self.local_switches:
            counts = s.drop_counts()
            if counts:
                out[s.name] = counts
        return out

    def drop_breakdown(self) -> Dict[str, int]:
        """Window drop counts aggregated by cause across the fabric."""
        totals: Dict[str, int] = {}
        for s in self.local_switches:
            for cause, n in s.drop_counts().items():
                totals[cause] = totals.get(cause, 0) + n
        for h in self.local_hosts:
            for cause, n in h.drop_counts().items():
                totals[cause] = totals.get(cause, 0) + n
        return totals

    def frames_sent(self) -> int:
        return sum(h.stat_tx.value for h in self.local_hosts)

    def frames_delivered(self) -> int:
        return sum(h.stat_processed.value for h in self.local_hosts)

    # -- simulation control --------------------------------------------------

    def run_us(self, microseconds: float) -> int:
        return self.sim.run(until=self.sim.now + us_to_ticks(microseconds))

    def _checkpoint_ready(self) -> bool:
        if not self.quiescent():
            return False
        if self.generator is not None and self.generator.active:
            return False
        _registered, unregistered = self.sim.named_event_status()
        return not unregistered

    def reset_measurement(self) -> None:
        self.sim.reset_stats()

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self, extra_meta: Optional[dict] = None) -> dict:
        """Sealed snapshot of the whole fabric (drain first)."""
        if not self._checkpoint_ready():
            _registered, unregistered = self.sim.named_event_status()
            detail = []
            if not self.quiescent():
                detail.append("frames are still in flight")
            if unregistered:
                detail.append(
                    "anonymous one-shot events pending: "
                    + ", ".join(sorted(e.name for e in unregistered)))
            raise CheckpointError(
                f"{self.label}: fabric is not checkpoint-ready "
                f"({'; '.join(detail) or 'generator still active'})")
        labels = [label for label, _comp in self.topology.components()]
        meta = {
            "label": self.label,
            "app": "fabric",
            "seed": self.sim.rng.seed,
            "components": labels,
        }
        if extra_meta:
            meta.update(extra_meta)
        objects = {}
        for label, component in self.topology.components():
            try:
                objects[label] = component.serialize_state()
            except CheckpointError:
                raise
            except Exception as exc:
                raise CheckpointError(
                    f"{self.label}: serializing {label!r} failed: "
                    f"{exc}") from exc
        return seal({
            "meta": meta,
            "sim": self.sim.serialize_state(),
            "objects": objects,
        })

    def restore(self, doc: dict) -> None:
        """Restore into a freshly built, never-run fabric."""
        doc = verify(doc)
        meta = doc["meta"]
        if meta["label"] != self.label:
            raise CheckpointError(
                f"checkpoint is for fabric {meta['label']!r}, "
                f"not {self.label!r}")
        labels = [label for label, _comp in self.topology.components()]
        if meta["components"] != labels:
            raise CheckpointError(
                f"topology mismatch: checkpoint has {meta['components']}, "
                f"fabric has {labels}")
        if meta["seed"] != self.sim.rng.seed:
            raise CheckpointError(
                f"checkpoint was taken with seed {meta['seed']}, "
                f"fabric was built with seed {self.sim.rng.seed}")
        for label, component in self.topology.components():
            try:
                component.deserialize_state(doc["objects"][label])
            except CheckpointError:
                raise
            except Exception as exc:
                raise CheckpointError(
                    f"{self.label}: restoring {label!r} failed: "
                    f"{exc}") from exc
        self.sim.deserialize_state(doc["sim"])


def _switch_config(config: FabricConfig, radix: int) -> SwitchConfig:
    return SwitchConfig(
        radix=radix,
        queue_capacity=config.queue_capacity,
        forward_latency_ns=config.forward_latency_ns,
        bandwidth_bits_per_sec=config.link_bandwidth_bps)


def _make_host(fabric: Fabric, sim: Simulation, config: FabricConfig,
               name: str, host_id: int, group: int):
    owner = fabric._host_owner(host_id)
    if owner != fabric.shard_id:
        stub = _RemoteHostStub(name, host_id, group, owner)
        fabric.hosts.append(stub)
        return stub
    service_ticks = ns_to_ticks(config.host_service_ns or 1.0)
    return fabric._add_host(FabricHost(
        sim, name, host_id, group,
        service_ticks=service_ticks,
        queue_capacity=config.host_queue_capacity,
        mtu_bytes=config.mtu_bytes))


def build_fat_tree(sim: Simulation, config: FabricConfig,
                   name: str = "fabric", shard_plan=None,
                   shard_id: int = 0) -> Fabric:
    """A K-ary fat-tree: ``k`` pods of ``k/2`` edge + ``k/2`` aggregation
    switches, ``(k/2)^2`` core switches, ``k^3/4`` hosts.

    Port convention on edge and aggregation switches: ports
    ``0 .. k/2-1`` face down, ``k/2 .. k-1`` face up.  Core switch ``c``
    (``c = j*(k/2) + m`` for aggregation column ``j``) uses port ``p``
    for pod ``p``.  Routing is the canonical two-level scheme: exact
    routes downward, ECMP over all up-ports otherwise.
    """
    k = config.k
    half = k // 2
    hosts_per_pod = half * half
    fabric = Fabric(sim, config, name, shard_plan=shard_plan,
                    shard_id=shard_id)

    edges = [[fabric._switch(f"{name}.pod{p}.edge{i}", k)
              for i in range(half)] for p in range(k)]
    aggs = [[fabric._switch(f"{name}.pod{p}.agg{j}", k)
             for j in range(half)] for p in range(k)]
    cores = [fabric._switch(f"{name}.core{c}", k)
             for c in range(half * half)]

    hosts = []
    for h in range(config.n_hosts):
        pod = h // hosts_per_pod
        hosts.append(_make_host(fabric, sim, config,
                                f"{name}.h{h}", h, group=pod))

    # Host <-> edge links.
    for h, host in enumerate(hosts):
        pod = h // hosts_per_pod
        in_pod = h % hosts_per_pod
        edge = edges[pod][in_pod // half]
        port = in_pod % half
        fabric._link(f"{name}.link.h{h}", host.port, edge.ports[port])

    # Edge <-> aggregation links (full mesh within the pod).
    for p in range(k):
        for i in range(half):
            for j in range(half):
                fabric._link(f"{name}.link.p{p}e{i}a{j}",
                             edges[p][i].ports[half + j],
                             aggs[p][j].ports[i])

    # Aggregation <-> core links: column j serves cores j*half .. +half.
    for p in range(k):
        for j in range(half):
            for m in range(half):
                core = cores[j * half + m]
                fabric._link(f"{name}.link.c{j * half + m}p{p}",
                             aggs[p][j].ports[half + m],
                             core.ports[p])

    up = tuple(range(half, k))
    for h, host in enumerate(hosts):
        pod = h // hosts_per_pod
        in_pod = h % hosts_per_pod
        edge_i = in_pod // half
        edge_port = in_pod % half
        edges[pod][edge_i].add_route(host.mac, (edge_port,))
        for j in range(half):
            aggs[pod][j].add_route(host.mac, (edge_i,))
        for core in cores:
            core.add_route(host.mac, (pod,))
    for p in range(k):
        for i in range(half):
            edges[p][i].set_default_route(up)
        for j in range(half):
            aggs[p][j].set_default_route(up)

    fabric._finish_build()
    return fabric


def build_leaf_spine(sim: Simulation, config: FabricConfig,
                     name: str = "fabric", shard_plan=None,
                     shard_id: int = 0) -> Fabric:
    """A two-tier leaf-spine: every leaf connects to every spine.

    Leaf ``l`` uses ports ``0 .. hosts_per_leaf-1`` for its hosts and
    ``hosts_per_leaf .. +spines-1`` as up-ports; spine ``s`` uses port
    ``l`` for leaf ``l``.  With the default 4 hosts x 2 spines per leaf
    the fabric is 2:1 oversubscribed — the scenario matrix's bounded-
    drop cases live here.
    """
    leaves_n, spines_n, per_leaf = (config.leaves, config.spines,
                                    config.hosts_per_leaf)
    fabric = Fabric(sim, config, name, shard_plan=shard_plan,
                    shard_id=shard_id)

    leaves = [fabric._switch(f"{name}.leaf{li}", per_leaf + spines_n)
              for li in range(leaves_n)]
    spines = [fabric._switch(f"{name}.spine{s}", leaves_n)
              for s in range(spines_n)]

    hosts = []
    for h in range(leaves_n * per_leaf):
        hosts.append(_make_host(fabric, sim, config,
                                f"{name}.h{h}", h, group=h // per_leaf))

    for h, host in enumerate(hosts):
        leaf = leaves[h // per_leaf]
        fabric._link(f"{name}.link.h{h}", host.port,
                     leaf.ports[h % per_leaf])
    for li in range(leaves_n):
        for s in range(spines_n):
            fabric._link(f"{name}.link.l{li}s{s}",
                         leaves[li].ports[per_leaf + s],
                         spines[s].ports[li])

    up = tuple(range(per_leaf, per_leaf + spines_n))
    for h, host in enumerate(hosts):
        leaf_i = h // per_leaf
        leaves[leaf_i].add_route(host.mac, (h % per_leaf,))
        for spine in spines:
            spine.add_route(host.mac, (leaf_i,))
    for leaf in leaves:
        leaf.set_default_route(up)

    fabric._finish_build()
    return fabric


def build_fabric(sim: Simulation, config: FabricConfig,
                 name: str = "fabric", shard_plan=None,
                 shard_id: int = 0) -> Fabric:
    """Builder dispatch on :attr:`FabricConfig.topology`.

    ``shard_plan`` / ``shard_id`` (see
    :func:`repro.dist.shard.plan_fabric_shards`) build only one shard's
    slice, with cross-shard links as channel halves."""
    if config.topology == "fat_tree":
        return build_fat_tree(sim, config, name=name,
                              shard_plan=shard_plan, shard_id=shard_id)
    return build_leaf_spine(sim, config, name=name,
                            shard_plan=shard_plan, shard_id=shard_id)
