"""Multi-node switch fabrics: output-queued switches and topologies.

The paper's setup is one host behind one load generator; datacenter
evaluation needs many hosts behind a switch fabric.  This module adds:

- :class:`OutputQueuedSwitch`: a store-and-forward switch SimObject
  with one bounded FIFO per output port, ECMP hashing on the flow
  5-tuple across equal-cost uplinks, and per-cause drop accounting
  its conservation rule closes over;
- :class:`FabricHost`: a lightweight flow endpoint whose DPDK/kernel
  personality is a per-frame service cost derived from the measured
  per-packet cycle costs of the full single-node models;
- declarative :func:`build_fat_tree` / :func:`build_leaf_spine`
  builders on top of :class:`~repro.system.topology.Topology`, wired
  entirely through typed ports and :class:`~repro.nic.phy.EtherLink`;
- :class:`Fabric`: the container with a single node's run / reset /
  checkpoint / restore surface — the same
  :class:`~repro.sim.checkpoint.Rig` base as a node's — so the warm-up
  cache and the sweep executor treat a 20-switch fat-tree exactly like
  a single node.

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
    wire_ticks,
)
from repro.nic.phy import EtherLink, EtherPort
from repro.sim.channel import ChannelHalf
from repro.sim.checkpoint import Rig, Stateful
from repro.sim.event_queue import EventPool
from repro.sim.simobject import SimObject, Simulation
from repro.sim.ticks import ns_to_ticks, us_to_ticks

# Drop-cause taxonomy (see docs/fabrics.md): every lost frame is charged
# to exactly one cause, and conservation invariants close over them.
DROP_SWITCH_QUEUE = "switch-queue-full"
DROP_SWITCH_NO_ROUTE = "switch-no-route"
DROP_HOST_QUEUE = "host-queue-full"
DROP_CAUSES = (DROP_SWITCH_QUEUE, DROP_SWITCH_NO_ROUTE, DROP_HOST_QUEUE)

#: Entries a switch's ECMP memo holds before it is cleared: above the
#: (route set, flow) pairs one switch sees in a run of a hundred flows,
#: and a bound on a run of thousands of short ones.
ECMP_MEMO_CAP = 256

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


class OutputQueuedSwitch(Stateful, SimObject):
    """Store-and-forward switch with per-output bounded FIFOs.

    Forwarding is table-driven: :meth:`add_route` maps a destination
    MAC to one or more equal-cost output ports, :meth:`set_default_route`
    supplies the up-ports used for everything non-local, and multi-port
    routes are resolved by ECMP on the 5-tuple (salted with the switch
    name).  A frame that finds its output FIFO full is dropped and
    charged to :data:`DROP_SWITCH_QUEUE`; a frame with no route is
    charged to :data:`DROP_SWITCH_NO_ROUTE`.  The switch's conservation
    law (``rx == tx + drops + queued``) is stated over lifetime counters
    in :meth:`invariant_failures`.
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
        # ecmp_select() per (route set, flow 5-tuple): a flow's path is a
        # pure function of both, so each flow is hashed once, not once
        # per frame.  Cleared when it reaches ECMP_MEMO_CAP entries, so
        # a run of many short flows cannot grow it without bound.
        # Derived, so never checkpointed.
        self._ecmp_memo: Dict[Tuple[Tuple[int, ...], Tuple], int] = {}
        self._queued = [0] * config.radix
        self._free_at = [0] * config.radix
        # Lifetime counters (never reset) close the conservation law;
        # the window counters below are the per-measurement view.
        self._rx = 0
        self._tx = 0
        self._drops = {DROP_SWITCH_QUEUE: 0, DROP_SWITCH_NO_ROUTE: 0}
        self.window_drops: Dict[str, int] = {}  # by cause, nonzero only
        # One departure stream per output: each FIFO drains in order.
        self._depart_pools = [EventPool(self._depart, f"{name}.p{i}.depart")
                              for i in range(config.radix)]
        self._wire_ticks = wire_ticks(config.bandwidth_bits_per_sec)

    def _receiver(self, index: int) -> Callable[[Packet], None]:
        def on_receive(packet: Packet, _index: int = index) -> None:
            self._on_receive(_index, packet)
        return on_receive

    def invariant_failures(self, final: bool = True):
        """Conservation: every frame received is forwarded, dropped or
        queued, and no output queue is negative or over capacity."""
        fails = []
        queued = 0
        for i, depth in enumerate(self._queued):
            queued += depth
            if depth < 0:
                fails.append(f"conservation: output {i}: negative queue "
                             f"depth {depth}")
            elif depth > self.config.queue_capacity:
                fails.append(
                    f"conservation: output {i}: queue depth {depth} "
                    f"exceeds capacity {self.config.queue_capacity}")
        dropped = sum(self._drops.values())
        if self._rx != self._tx + dropped + queued:
            fails.append(
                f"conservation: received {self._rx} != forwarded "
                f"{self._tx} + dropped {dropped} + queued {queued}")
        return fails

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
        key = (outs, packet_five_tuple(packet))
        memo = self._ecmp_memo
        out = memo.get(key)
        if out is None:
            if len(memo) >= ECMP_MEMO_CAP:
                memo.clear()
            out = memo[key] = ecmp_select(key[1], outs, salt=self.name)
        return out

    # -- datapath ------------------------------------------------------------

    def _on_receive(self, in_port: int, packet: Packet) -> None:
        self._rx += 1
        out = self.route_for(packet)
        if out is None:
            self._drop(packet, DROP_SWITCH_NO_ROUTE)
            return
        if self._queued[out] >= self.config.queue_capacity:
            self._drop(packet, DROP_SWITCH_QUEUE, out=out)
            return
        self._queued[out] += 1
        events = self.sim.events
        start = max(events._now + self.forward_latency_ticks,
                    self._free_at[out])
        self._free_at[out] = finish = (start
                                       + self._wire_ticks[packet.wire_len])
        self._depart_pools[out].schedule_at(events, finish, (out, packet))

    def _depart(self, payload) -> None:
        out, packet = payload
        self._queued[out] -= 1
        self._tx += 1
        self.ports[out].send(packet)

    def _drop(self, packet: Packet, cause: str, out: Optional[int] = None) -> None:
        self._drops[cause] += 1
        self.window_drops[cause] = self.window_drops.get(cause, 0) + 1
        if self.sim.tracer.enabled:
            self.trace("fabric", "drop", cause=cause, out=out,
                       dst=str(packet.dst))

    # -- introspection -------------------------------------------------------

    def held(self) -> int:
        """Frames currently queued across all outputs."""
        return sum(self._queued)

    def drop_counts(self) -> Dict[str, int]:
        """Per-cause drops in the current measurement window."""
        return dict(self.window_drops)

    # -- measurement and checkpoint support ----------------------------------

    measured_fields = ("window_drops",)
    state_fields = ("_free_at", "_rx", "_tx", "_drops") + measured_fields

    def serialize_state(self) -> dict:
        state = super().serialize_state()
        state["port_counters"] = [[p.frames_sent, p.frames_received]
                                  for p in self.ports]
        return state

    def deserialize_state(self, state: dict) -> None:
        super().deserialize_state(state)
        for port, (sent, received) in zip(self.ports,
                                          state["port_counters"]):
            port.frames_sent = sent
            port.frames_received = received


class FabricHost(Stateful, SimObject):
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
        # Lifetime counters close the conservation law over the port's
        # frames_sent / frames_received; the window_* counters are the
        # per-measurement view.
        self._processed = 0
        self._dropped = 0
        self.window_tx = 0
        self.window_processed = 0   # frames fully serviced by the stack
        self.window_dropped = 0     # RX queue overruns
        self._service_pool = EventPool(self._service, f"{name}.service")

    def invariant_failures(self, final: bool = True):
        """Conservation: every frame the port received is processed,
        dropped or queued, within the RX queue's bounds."""
        fails = []
        if not 0 <= self._rx_queued <= self.queue_capacity:
            fails.append(f"conservation: RX queue depth {self._rx_queued} "
                         f"outside [0, {self.queue_capacity}]")
        received = self.port.frames_received
        if received != self._processed + self._dropped + self._rx_queued:
            fails.append(
                f"conservation: received {received} != processed "
                f"{self._processed} + dropped {self._dropped} + queued "
                f"{self._rx_queued}")
        return fails

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
            self.window_tx += 1
            self.port.send(packet)

    # -- receive -------------------------------------------------------------

    def _on_receive(self, packet: Packet) -> None:
        if self._rx_queued >= self.queue_capacity:
            self._dropped += 1
            self.window_dropped += 1
            return
        self._rx_queued += 1
        start = max(self.now, self._svc_free_at)
        finish = start + self.service_ticks
        self._svc_free_at = finish
        self._service_pool.schedule_at(self.sim.events, finish, packet)

    def _service(self, packet: Packet) -> None:
        self._rx_queued -= 1
        self._processed += 1
        self.window_processed += 1
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

    def held(self) -> int:
        """Frames in the RX queue awaiting service."""
        return self._rx_queued

    def drop_counts(self) -> Dict[str, int]:
        value = self.window_dropped
        return {DROP_HOST_QUEUE: value} if value else {}

    # -- measurement and checkpoint support ----------------------------------

    measured_fields = ("window_tx", "window_processed", "window_dropped")
    state_fields = (("_svc_free_at", "_processed", "_dropped",
                     "port.frames_sent", "port.frames_received")
                    + measured_fields)

    def serialize_state(self) -> dict:
        state = super().serialize_state()
        # Flows that will never complete (a segment was dropped) keep
        # their partial counts across a checkpoint.
        state["flow_rx"] = {str(k): v for k, v in self._flow_rx.items()}
        return state

    def deserialize_state(self, state: dict) -> None:
        super().deserialize_state(state)
        self._flow_rx = {int(k): v for k, v in state["flow_rx"].items()}


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


class Fabric(Rig):
    """A built fabric: hosts + switches + links + the wiring graph.

    Has a single node's control surface — ``run_us``, and
    ``reset_measurement`` / ``checkpoint`` / ``restore`` from the same
    :class:`~repro.sim.checkpoint.Rig` base — so the warm-up cache, the
    sweep executor and the CLI drive a fabric exactly like a single
    node.

    With a ``shard_plan`` (see :mod:`repro.dist.shard`) every shard
    still builds every host and switch; only :meth:`_link` consults the
    plan.  A link whose two ends this shard owns is an
    :class:`EtherLink`, a link with one owned end becomes a
    :class:`~repro.sim.channel.ChannelHalf` under the same link name —
    the SimBricks-style boundary the shard runner synchronizes over —
    and a link between two other shards' components is not built.  The
    components other shards own stay idle: they receive no frame and
    inject no flow, so every aggregate below reads zero for them.  The
    shard runner then sets ``sync``: :meth:`run_us` advances in epochs
    with the peer shards, and :meth:`everywhere` ANDs a phase decision
    over all shards.
    """

    #: The application a checkpoint of a fabric records.
    identity_app = "fabric"

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
        self.links: List[EtherLink] = []
        self.channels: List[ChannelHalf] = []
        self.generator: Optional[FlowTrafficGenerator] = None
        #: The shard's link to its peers (``repro.dist.shard``); None
        #: when the whole fabric runs in this process.
        self.sync = None
        self.sim.invariants.register(label, self.invariant_failures)

    # -- construction helpers (used by the builders) -------------------------

    def _host(self, host_id: int, group: int) -> FabricHost:
        config = self.config
        host = FabricHost(
            self.sim, f"{self.label}.h{host_id}", host_id, group,
            service_ticks=ns_to_ticks(config.host_service_ns or 1.0),
            queue_capacity=config.host_queue_capacity,
            mtu_bytes=config.mtu_bytes)
        self.hosts.append(host)
        self.topology.add(host.name, host)
        return host

    def _switch(self, name: str, radix: int) -> OutputQueuedSwitch:
        switch = OutputQueuedSwitch(self.sim, name,
                                    _switch_config(self.config, radix))
        self.switches.append(switch)
        self.topology.add(name, switch)
        return switch

    def _owner(self, component) -> int:
        """The shard that simulates ``component`` (this one unsharded)."""
        plan = self.shard_plan
        if plan is None:
            return self.shard_id
        if isinstance(component, FabricHost):
            return plan.host_shard(component.host_id)
        return plan.switch_shard(component.name[len(self.label) + 1:])

    def _link(self, name: str, a: EtherPort, b: EtherPort) -> None:
        """Wire two ports: an :class:`EtherLink` when this shard owns
        both ends, a :class:`ChannelHalf` when it owns one, nothing when
        it owns neither."""
        owner_a, owner_b = self._owner(a.owner), self._owner(b.owner)
        if self.shard_id not in (owner_a, owner_b):
            return
        bandwidth = self.config.link_bandwidth_bps
        delay_ticks = ns_to_ticks(self.config.link_delay_ns)
        if owner_a == owner_b:
            link = EtherLink(self.sim, name,
                             bandwidth_bits_per_sec=bandwidth,
                             delay_ticks=delay_ticks)
            link.connect(a, b)
            self.links.append(link)
        else:
            local, peer = ((a, owner_b) if owner_a == self.shard_id
                           else (b, owner_a))
            link = ChannelHalf(self.sim, name, peer_shard=peer,
                               bandwidth_bits_per_sec=bandwidth,
                               delay_ticks=delay_ticks)
            link.attach(local)
            self.channels.append(link)
        self.topology.add(name, link)

    def _finish_build(self) -> None:
        macs = [h.mac for h in self.hosts]
        for h in self.hosts:
            h.set_peers(macs)

    def law_failures(self) -> List[str]:
        """Flow conservation, exact only once every FIFO and wire has
        drained (the rig checks it only then).  Sharded, the law closes
        over the channel boundary: frames entering this shard (local
        sends + channel ingress) equal frames leaving it (serviced +
        dropped + channel egress)."""
        sent = sum(h.port.frames_sent for h in self.hosts)
        processed = sum(h._processed for h in self.hosts)
        host_drops = sum(h._dropped for h in self.hosts)
        switch_drops = sum(sum(s._drops.values()) for s in self.switches)
        ch_in = sum(c.frames_in for c in self.channels)
        ch_out = sum(c.frames_out for c in self.channels)
        if sent + ch_in != processed + host_drops + switch_drops + ch_out:
            return [
                f"flow-conservation: sent {sent} + channel-in {ch_in} != "
                f"processed {processed} + host drops {host_drops} + switch "
                f"drops {switch_drops} + channel-out {ch_out}"]
        return []

    def attach_generator(self, generator: FlowTrafficGenerator) -> None:
        if self.generator is not None:
            raise RuntimeError(f"{self.label} already has a generator")
        self.generator = generator
        self.topology.add("flowgen", generator)
        for host in self.hosts:
            host.on_flow_complete = generator.flow_completed

    # -- introspection -------------------------------------------------------

    def host_groups(self) -> List[int]:
        return [h.group for h in self.hosts]

    def per_switch_drops(self) -> Dict[str, Dict[str, int]]:
        """Window drop counts by switch name and cause (nonzero only)."""
        out = {}
        for s in self.switches:
            counts = s.drop_counts()
            if counts:
                out[s.name] = counts
        return out

    def drop_breakdown(self) -> Dict[str, int]:
        """Window drop counts aggregated by cause across the fabric."""
        totals: Dict[str, int] = {}
        for s in self.switches:
            for cause, n in s.drop_counts().items():
                totals[cause] = totals.get(cause, 0) + n
        for h in self.hosts:
            for cause, n in h.drop_counts().items():
                totals[cause] = totals.get(cause, 0) + n
        return totals

    def frames_sent(self) -> int:
        return sum(h.window_tx for h in self.hosts)

    def frames_delivered(self) -> int:
        return sum(h.window_processed for h in self.hosts)

    # -- simulation control --------------------------------------------------

    def run_us(self, microseconds: float) -> int:
        target = self.sim.now + us_to_ticks(microseconds)
        if self.sync is None:
            return self.sim.run(until=target)
        self.sync.group.advance(target, self.sync.exchange)
        return self.sim.now

    def everywhere(self, flag: bool) -> bool:
        """``flag`` ANDed over every shard of the run (just ``flag``
        unsharded), so all shards take each phase decision together."""
        return flag if self.sync is None else self.sync.all_true(flag)


def _switch_config(config: FabricConfig, radix: int) -> SwitchConfig:
    return SwitchConfig(
        radix=radix,
        queue_capacity=config.queue_capacity,
        forward_latency_ns=config.forward_latency_ns,
        bandwidth_bits_per_sec=config.link_bandwidth_bps)


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

    hosts = [fabric._host(h, group=h // hosts_per_pod)
             for h in range(config.n_hosts)]

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

    hosts = [fabric._host(h, group=h // per_leaf)
             for h in range(leaves_n * per_leaf)]

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
    :func:`repro.dist.shard.plan_fabric_shards`) build the whole fabric
    for one shard: only the links it owns an end of, with cross-shard
    links as channel halves (see :class:`Fabric`)."""
    if config.topology == "fat_tree":
        return build_fat_tree(sim, config, name=name,
                              shard_plan=shard_plan, shard_id=shard_id)
    return build_leaf_spine(sim, config, name=name,
                            shard_plan=shard_plan, shard_id=shard_id)
