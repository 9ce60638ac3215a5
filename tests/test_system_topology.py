"""Topology builder tests: declarative assembly, validation, rendering.

Satellite coverage for the ISSUE acceptance criteria: every preset builds
through :class:`~repro.system.topology.Topology` with zero unbound ports,
and a deliberately half-wired node fails naming the dangling port.
"""

import pytest

from repro.apps.iperf import IperfServer
from repro.apps.testpmd import TestPmd as PmdApp  # noqa: N811
from repro.sim.ports import KIND_MEM, RequestPort, ResponsePort
from repro.sim.simobject import Simulation
from repro.system.node import DpdkNode, KernelNode, NodeBuildError
from repro.system.presets import altra, gem5_baseline, gem5_default
from repro.system.topology import Topology, TopologyError, build_platform


class Owner:
    def __init__(self, name):
        self.name = name

    # Topology.add enforces the checkpoint Serializable protocol on
    # every component at registration time.
    def serialize_state(self):
        return {}

    def deserialize_state(self, state):
        pass


class TestTopologyRegistry:
    def test_add_returns_component(self):
        topo = Topology("t")
        comp = Owner("x")
        assert topo.add("x", comp) is comp
        assert topo.get("x") is comp

    def test_duplicate_label_rejected(self):
        topo = Topology("t")
        topo.add("x", Owner("x"))
        with pytest.raises(TopologyError, match="duplicate"):
            topo.add("x", Owner("y"))

    def test_none_component_rejected(self):
        with pytest.raises(TopologyError, match="None"):
            Topology("t").add("x", None)

    def test_unserializable_component_rejected(self):
        class NoCheckpoint:
            pass

        with pytest.raises(TopologyError, match="serialize_state"):
            Topology("t").add("x", NoCheckpoint())

    def test_unknown_label_names_known_ones(self):
        topo = Topology("t")
        topo.add("known", Owner("known"))
        with pytest.raises(TopologyError, match="known"):
            topo.get("missing")

    def test_components_in_registration_order(self):
        topo = Topology("t")
        for label in ("b", "a", "c"):
            topo.add(label, Owner(label))
        assert [label for label, _ in topo.components()] == ["b", "a", "c"]

    def test_per_event_pass_skips_final_checks_only_rules(self):
        """Strict mode's per-event pass (``final`` false) calls every
        rule except those a component declares ``final_checks_only``;
        a final check calls them all, in registration order."""
        calls = []

        class Ruled(Owner):
            def invariant_failures(self, final=True):
                calls.append((self.name, final))
                return [f"broken at final={final}"]

        class FinalOnly(Ruled):
            final_checks_only = True

        topo = Topology("t")
        topo.add("a", Ruled("a"))
        topo.add("b", FinalOnly("b"))
        assert topo.invariant_failures(final=False) == [
            "a: broken at final=False"]
        assert calls == [("a", False)]
        calls.clear()
        assert topo.invariant_failures(final=True) == [
            "a: broken at final=True", "b: broken at final=True"]
        assert calls == [("a", True), ("b", True)]


class TestValidation:
    def test_dangling_request_port_named(self):
        topo = Topology("half")
        owner = Owner("dev")
        owner.port = RequestPort(owner, "mem_port", KIND_MEM)
        topo.add("dev", owner)
        with pytest.raises(TopologyError, match=r"dev\.mem_port"):
            topo.validate()

    def test_hint_is_actionable_advice(self):
        topo = Topology("half")
        owner = Owner("dev")
        owner.port = RequestPort(owner, "p", KIND_MEM,
                                 hint="wire me to the hierarchy")
        topo.add("dev", owner)
        with pytest.raises(TopologyError, match="wire me to the hierarchy"):
            topo.validate()

    def test_multi_response_port_may_stay_unbound(self):
        topo = Topology("t")
        owner = Owner("pool")
        owner.port = ResponsePort(owner, "clients", KIND_MEM, multi=True)
        topo.add("pool", owner)
        topo.validate()   # no raise

    def test_connect_delegates_to_bind(self):
        topo = Topology("t")
        a, b = Owner("a"), Owner("b")
        a.port = RequestPort(a, "out", KIND_MEM)
        b.port = ResponsePort(b, "in", KIND_MEM)
        topo.add("a", a)
        topo.add("b", b)
        topo.connect(a.port, b.port, latency_ticks=3)
        topo.validate()
        assert a.port.bind_metadata[0] == {"latency_ticks": 3}


PRESETS = [gem5_default, gem5_baseline, altra]


class TestPresetWiring:
    """Every Table-I preset assembles with zero unbound ports."""

    @pytest.mark.parametrize("preset", PRESETS,
                             ids=[p.__name__ for p in PRESETS])
    def test_kernel_node_fully_wired(self, preset):
        node = KernelNode(preset(), seed=1)
        node.install_app(IperfServer)
        node.validate_wiring()
        assert node.topology.unbound_ports() == []

    @pytest.mark.parametrize("preset", [gem5_default, altra],
                             ids=["gem5_default", "altra"])
    def test_dpdk_node_fully_wired(self, preset):
        node = DpdkNode(preset(), seed=1)
        node.install_app(PmdApp)
        node.validate_wiring()
        assert node.topology.unbound_ports() == []

    def test_baseline_dpdk_failure_names_config_field(self):
        with pytest.raises(NodeBuildError, match="pci_quirks"):
            DpdkNode(gem5_baseline(), seed=1)

    def test_pipeline_app_shares_clock_domain(self):
        node = DpdkNode(gem5_default(), seed=1)
        node.install_pipeline_app()
        node.validate_wiring()
        assert node.worker_core.clock is node.clock_domain
        assert node.core.clock is node.clock_domain

    def test_loadgen_attachment_stays_fully_wired(self):
        node = DpdkNode(gem5_default(), seed=1)
        node.install_app(PmdApp)
        node.attach_loadgen()
        node.validate_wiring()
        assert node.topology.external_ports() == []


class TestHalfWiredNode:
    """The acceptance criterion: a half-wired node fails with the
    dangling port named in the error."""

    def test_dpdk_node_without_app(self):
        node = DpdkNode(gem5_default(), seed=1)
        with pytest.raises(TopologyError) as exc:
            node.validate_wiring()
        assert "nic0.pmd.app_side" in str(exc.value)
        assert "install" in str(exc.value)

    def test_kernel_node_without_app(self):
        node = KernelNode(gem5_default(), seed=1)
        with pytest.raises(TopologyError) as exc:
            node.validate_wiring()
        assert "nic0.e1000.app_side" in str(exc.value)

    def test_wire_port_reported_external_not_dangling(self):
        node = DpdkNode(gem5_default(), seed=1)
        node.install_app(PmdApp)
        node.validate_wiring()   # no traffic source yet: still valid
        assert [p.full_name for p in node.topology.external_ports()] \
            == ["nic0.port"]


class TestBuildPlatform:
    def test_platform_components_registered(self):
        topo = Topology("p")
        platform = build_platform(topo, Simulation(seed=2), gem5_default())
        labels = [label for label, _ in topo.components()]
        assert labels == ["hierarchy", "clock", "core", "iobus",
                          "iobus.tx", "dma", "nic0"]
        assert topo.get("core") is platform.core
        assert topo.get("nic0") is platform.nic

    def test_prefix_namespaces_labels(self):
        topo = Topology("p")
        build_platform(topo, Simulation(seed=2), gem5_default(),
                       prefix="client.")
        assert topo.get("client.core") is not None
        assert topo.get("client.nic0") is not None

    def test_core_clock_wired_through_port(self):
        topo = Topology("p")
        platform = build_platform(topo, Simulation(seed=2), gem5_default())
        assert platform.core.clock is platform.clock
        assert platform.core.clock_port.peer is platform.clock.port


class TestDotRendering:
    def test_dot_is_deterministic(self):
        def make():
            node = DpdkNode(gem5_default(), seed=3)
            node.install_app(PmdApp)
            return node.wiring_dot()

        assert make() == make()

    def test_dot_names_components_and_edges(self):
        node = DpdkNode(gem5_default(), seed=3)
        node.install_app(PmdApp)
        dot = node.wiring_dot()
        assert dot.startswith('digraph "gem5"')
        for label in ("core", "hierarchy", "nic0", "dma", "pmd", "app"):
            assert f'"{label}"' in dot
        # Request -> response orientation: the core initiates to memory.
        assert '"core" -> "hierarchy"' in dot

    def test_dot_carries_link_metadata(self):
        node = DpdkNode(gem5_default(), seed=3)
        node.install_app(PmdApp)
        node.attach_loadgen()
        dot = node.wiring_dot()
        assert "link0" in dot
        assert "100Gbps" in dot


class TestDualModeWiring:
    """The embedded Drive Node client reuses the same builder and lands
    in the server's topology fully wired."""

    def _client_topology(self, kernel):
        from repro.apps.memcached_dpdk import MemcachedDpdk
        from repro.apps.memcached_kernel import MemcachedKernel
        from repro.kvstore.store import KvStore
        from repro.system.dual_mode import _build_client_in

        config = gem5_default()
        if kernel:
            server = KernelNode(config, seed=5)
            server.install_app(MemcachedKernel,
                               store=KvStore(server.address_space))
        else:
            server = DpdkNode(config, seed=5)
            server.install_app(MemcachedDpdk,
                               store=KvStore(server.address_space))
        _build_client_in(server, config, kernel, n_requests=10,
                         rate_rps=100_000.0)
        return server.topology

    def test_dpdk_client_fully_wired(self):
        topo = self._client_topology(kernel=False)
        topo.validate()
        assert topo.get("client.pmd") is not None
        assert topo.unbound_ports() == []

    def test_kernel_client_fully_wired(self):
        topo = self._client_topology(kernel=True)
        topo.validate()
        assert topo.get("client.driver") is not None
        assert topo.unbound_ports() == []

    def test_one_topology_covers_both_hosts(self):
        topo = self._client_topology(kernel=False)
        labels = {label for label, _ in topo.components()}
        assert "core" in labels and "client.core" in labels
        assert "nic0" in labels and "client.nic0" in labels
