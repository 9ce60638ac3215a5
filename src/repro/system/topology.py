"""Declarative node topology: build, validate, render.

A :class:`Topology` is the wiring graph of one simulated host (or of
several hosts sharing one event queue, as in dual mode): every component
is registered under a label, every connection between components is a
typed :class:`~repro.sim.ports.Port` binding, and the graph as a whole
can be validated (no dangling ports) and rendered as DOT for the
architecture docs.

The module also owns the *builder* for the common platform of Fig 1b —
memory hierarchy, clock domain, core, I/O bus, DMA engine, NIC — which
:mod:`repro.system.node` (both node flavours) and
:mod:`repro.system.dual_mode` (the embedded Drive Node client) share
instead of each hand-wiring its own copy.  Construction order is part of
the platform's contract: object registration, address-space allocation
and stat-group creation happen in a fixed sequence so results are
bit-identical across builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu import make_core
from repro.cpu.core import CoreModel
from repro.mem.address import AddressSpace
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.xbar import BandwidthServer
from repro.nic.dma import DmaEngine
from repro.nic.i8254x import I8254xNic, NicConfig
from repro.sim.checkpoint import assert_serializable
from repro.sim.ports import (
    ClockDomain,
    Port,
    ROLE_REQUEST,
    ports_of,
)
from repro.sim.simobject import Simulation
from repro.sim.ticks import ns_to_ticks
from repro.system.config import SystemConfig


class TopologyError(RuntimeError):
    """The wiring graph is not buildable/complete."""


def _required(port: Port) -> bool:
    """Is an unbound ``port`` a wiring error?

    Request ports always need a server; a point-to-point response port
    needs its single client.  Multi response ports are capacity offers
    (a pool nobody draws from is odd but legal), and ``external`` ports
    face outside the topology (a NIC awaiting its cable).
    """
    if port.external:
        return False
    if port.role == ROLE_REQUEST:
        return True
    return not port.multi


class Topology:
    """A labelled set of components plus the port bindings between them."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._components: Dict[str, object] = {}
        #: (label, ``invariant_failures``) per component that has one,
        #: collected at :meth:`add` so strict mode walks no components;
        #: the per-event pass leaves out ``final_checks_only`` ones.
        self._invariant_checks: List[Tuple[str, Callable]] = []
        self._event_checks: List[Tuple[str, Callable]] = []

    # -- construction ------------------------------------------------------

    def add(self, label: str, component):
        """Register ``component`` under ``label``; returns the component
        so builders can assign and register in one expression.  Its
        ``invariant_failures``, if it has one, joins
        :meth:`invariant_failures`, at final checks only if the component
        declares ``final_checks_only``."""
        if label in self._components:
            raise TopologyError(
                f"{self.name}: duplicate component label {label!r}")
        if component is None:
            raise TopologyError(f"{self.name}: component {label!r} is None")
        # Every component is part of the checkpoint traversal, so a
        # missing serialize/deserialize pair is a build-time error here
        # rather than a checkpoint-time surprise.
        try:
            assert_serializable(label, component)
        except Exception as exc:
            raise TopologyError(f"{self.name}: {exc}") from None
        self._components[label] = component
        check = getattr(component, "invariant_failures", None)
        if check is not None:
            self._invariant_checks.append((label, check))
            if not getattr(component, "final_checks_only", False):
                self._event_checks.append((label, check))
        return component

    def connect(self, a: Port, b: Port, **metadata) -> None:
        """Bind two ports (see :meth:`repro.sim.ports.Port.bind`)."""
        a.bind(b, **metadata)

    def invariant_failures(self, final: bool = True) -> List[str]:
        """Every component's failed rules, each message prefixed with
        the component's label (``nic0: drop-cause-accounting: ...``).
        A per-event check (``final`` false) skips the components that
        declare ``final_checks_only``."""
        fails = []
        checks = self._invariant_checks if final else self._event_checks
        for label, check in checks:
            for message in check(final):
                fails.append(f"{label}: {message}")
        return fails

    # -- introspection -----------------------------------------------------

    def components(self) -> List[Tuple[str, object]]:
        """(label, component) pairs in registration order."""
        return list(self._components.items())

    def get(self, label: str):
        """Component registered under ``label``."""
        try:
            return self._components[label]
        except KeyError:
            raise TopologyError(
                f"{self.name}: no component labelled {label!r}; have "
                f"{sorted(self._components)}") from None

    def ports(self) -> List[Tuple[str, Port]]:
        """(component label, port) pairs in registration/creation order."""
        out: List[Tuple[str, Port]] = []
        for label, component in self._components.items():
            for port in ports_of(component):
                out.append((label, port))
        return out

    def unbound_ports(self) -> List[Port]:
        """Unbound ports that make the topology incomplete."""
        return [port for _label, port in self.ports()
                if not port.bound and _required(port)]

    def external_ports(self) -> List[Port]:
        """Unbound ports that legitimately face outside the topology."""
        return [port for _label, port in self.ports()
                if not port.bound and port.external]

    def edges(self) -> List[Tuple[str, Port, str, Port, dict]]:
        """Deduplicated bound port pairs within this topology.

        Each edge appears once as ``(label_a, port_a, label_b, port_b,
        metadata)`` in creation order.  Bindings whose peer component is
        not registered here are skipped (they belong to another
        topology).
        """
        label_of = {id(comp): label
                    for label, comp in self._components.items()}
        seen = set()
        out: List[Tuple[str, Port, str, Port, dict]] = []
        for label, port in self.ports():
            for peer, meta in zip(port.peers, port.bind_metadata):
                peer_label = label_of.get(id(peer.owner))
                if peer_label is None:
                    continue
                key = frozenset((id(port), id(peer)))
                if key in seen:
                    continue
                seen.add(key)
                out.append((label, port, peer_label, peer, meta))
        return out

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`TopologyError` naming every dangling port."""
        dangling = self.unbound_ports()
        if not dangling:
            return
        lines = [f"{self.name}: {len(dangling)} dangling port(s):"]
        for port in dangling:
            advice = port.hint or (
                f"bind it to a {port.kind} "
                f"{'response' if port.role == ROLE_REQUEST else 'request'} "
                f"port")
            lines.append(f"  - {port.full_name} ({port.kind} {port.role})"
                         f" — {advice}")
        raise TopologyError("\n".join(lines))

    # -- rendering ---------------------------------------------------------

    def _edge_label(self, port: Port, meta: dict) -> str:
        parts = [port.kind]
        link = meta.get("link")
        if link is not None:
            parts.append(getattr(link, "name", str(link)))
        bw = meta.get("bandwidth_bits_per_sec")
        if bw:
            parts.append(f"{bw / 1e9:g}Gbps")
        bps = meta.get("bytes_per_sec")
        if bps:
            parts.append(f"{bps * 8 / 1e9:g}Gbps")
        lat = meta.get("latency_ticks") or meta.get("delay_ticks")
        if lat:
            parts.append(f"{lat / 1000:g}ns")
        return "\\n".join(parts)

    def to_dot(self) -> str:
        """The wiring graph in Graphviz DOT form (deterministic)."""
        lines = [f'digraph "{self.name}" {{',
                 "  rankdir=LR;",
                 '  node [shape=box, fontname="monospace", fontsize=10];',
                 '  edge [fontname="monospace", fontsize=8];']
        for label, component in self._components.items():
            kind = type(component).__name__
            lines.append(f'  "{label}" [label="{label}\\n({kind})"];')
        for label, port, peer_label, _peer, meta in self.edges():
            # Draw request -> response; peers draw in insertion order.
            src, dst = ((label, peer_label)
                        if port.role != "response"
                        else (peer_label, label))
            lines.append(f'  "{src}" -> "{dst}" '
                         f'[label="{self._edge_label(port, meta)}"];')
        lines.append("}")
        return "\n".join(lines)


@dataclass
class Platform:
    """The common Fig 1b base a node builds on."""

    sim: Simulation
    address_space: AddressSpace
    hierarchy: MemoryHierarchy
    clock: ClockDomain
    core: CoreModel
    iobus: BandwidthServer
    dma: DmaEngine
    nic: I8254xNic


def build_platform(topology: Topology, sim: Simulation,
                   config: SystemConfig, *, prefix: str = "",
                   address_space: Optional[AddressSpace] = None,
                   nic_config: Optional[NicConfig] = None) -> Platform:
    """Construct the shared platform: memory, clock, core, I/O bus, DMA
    engine and NIC, registered with ``topology`` and wired through typed
    ports.

    ``prefix`` namespaces every component name (the dual-mode client uses
    ``"client."``); ``nic_config`` overrides the NIC geometry (kernel
    nodes shrink the rings).  Construction order is load-bearing — see
    the module docstring.
    """
    aspace = address_space if address_space is not None else AddressSpace()
    hierarchy = MemoryHierarchy(config.hierarchy,
                                name=f"{prefix}hierarchy")
    clock = ClockDomain(sim, f"{prefix}clock")
    core = make_core(config.core, hierarchy, clock=clock,
                     name=f"{prefix}core")
    iobus = BandwidthServer(
        f"{prefix}iobus", config.iobus_bytes_per_sec,
        ns_to_ticks(config.iobus_latency_ns))
    dma = DmaEngine(config.nic.dma, iobus, hierarchy, name=f"{prefix}dma")
    nic = I8254xNic(sim, f"{prefix}nic0", nic_config or config.nic,
                    dma, aspace, config.pci_quirks)
    topology.add(f"{prefix}hierarchy", hierarchy)
    topology.add(f"{prefix}clock", clock)
    topology.add(f"{prefix}core", core)
    topology.add(f"{prefix}iobus", iobus)
    topology.add(f"{prefix}iobus.tx", dma.iobus_tx)
    topology.add(f"{prefix}dma", dma)
    topology.add(f"{prefix}nic0", nic)
    return Platform(sim=sim, address_space=aspace, hierarchy=hierarchy,
                    clock=clock, core=core, iobus=iobus, dma=dma, nic=nic)
