"""Unit tests for the output-queued switch and the fabric builders."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen.flowgen import Flow
from repro.net.fabric import (
    DROP_SWITCH_NO_ROUTE,
    DROP_SWITCH_QUEUE,
    ECMP_MEMO_CAP,
    FabricConfig,
    OutputQueuedSwitch,
    SwitchConfig,
    build_fabric,
    build_fat_tree,
    build_leaf_spine,
    ecmp_select,
    host_mac,
    packet_five_tuple,
)
from repro.net.packet import Packet
from repro.nic.phy import EtherLink, EtherPort
from repro.sim.checkpoint import CheckpointError
from repro.sim.invariants import InvariantViolation
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from tests.conftest import check_components


def _frame(dst_id: int, src_id: int = 0, sport: int = 50000,
           wire_len: int = 256) -> Packet:
    return Packet(wire_len, dst=host_mac(dst_id), src=host_mac(src_id),
                  meta={"flow5": (src_id, dst_id, 3, sport, 9000)})


def _switch_rig(sim, radix=2, queue_capacity=4):
    """One switch with a sink host link on port 1 and routes to host 1."""
    switch = OutputQueuedSwitch(
        sim, "sw", SwitchConfig(radix=radix, queue_capacity=queue_capacity))
    received = []
    sink = EtherPort("sink", received.append)
    link = EtherLink(sim, "sw-sink")
    link.connect(switch.ports[1], sink)
    check_components(sim, switch, link)
    switch.add_route(host_mac(1), (1,))
    return switch, received


def _run(sim, us=100.0):
    sim.run(until=sim.now + us_to_ticks(us))


# ----------------------------------------------------------------------
# Datapath: forward, drop causes, conservation
# ----------------------------------------------------------------------

def test_switch_forwards_to_routed_port():
    sim = Simulation(seed=0)
    switch, received = _switch_rig(sim)
    switch.ports[0].deliver(_frame(dst_id=1))
    _run(sim)
    assert len(received) == 1
    assert switch._rx == 1 and switch._tx == 1
    assert switch.held() == 0
    assert switch.drop_counts() == {}
    sim.invariants.check(final=True)


def test_switch_drops_on_full_output_queue():
    sim = Simulation(seed=0)
    switch, received = _switch_rig(sim, queue_capacity=2)
    for sport in range(5):     # all arrive at the same tick
        switch.ports[0].deliver(_frame(dst_id=1, sport=50000 + sport))
    assert switch.drop_counts() == {DROP_SWITCH_QUEUE: 3}
    _run(sim)
    assert len(received) == 2
    assert switch._rx == switch._tx + sum(switch._drops.values())
    sim.invariants.check(final=True)


def test_switch_drops_frames_with_no_route():
    sim = Simulation(seed=0)
    switch, received = _switch_rig(sim)
    switch.ports[0].deliver(_frame(dst_id=9))   # no route, no default
    _run(sim)
    assert received == []
    assert switch.drop_counts() == {DROP_SWITCH_NO_ROUTE: 1}
    sim.invariants.check(final=True)


def test_switch_conservation_invariant_catches_mutation():
    sim = Simulation(seed=0)
    switch, _received = _switch_rig(sim)
    switch.ports[0].deliver(_frame(dst_id=1))
    _run(sim)
    switch._tx += 1    # corrupt the books
    with pytest.raises(InvariantViolation):
        sim.invariants.check(final=True)


def test_switch_rejects_bad_route_ports():
    sim = Simulation(seed=0)
    switch = OutputQueuedSwitch(sim, "sw", SwitchConfig(radix=2))
    with pytest.raises(ValueError):
        switch.add_route(host_mac(1), (5,))
    with pytest.raises(ValueError):
        switch.set_default_route((-1,))


def test_switch_config_validation():
    with pytest.raises(ValueError):
        SwitchConfig(radix=1)
    with pytest.raises(ValueError):
        SwitchConfig(queue_capacity=0)
    with pytest.raises(ValueError):
        SwitchConfig(bandwidth_bits_per_sec=0)


def test_ecmp_route_spreads_flows_and_is_stable():
    sim = Simulation(seed=0)
    switch = OutputQueuedSwitch(sim, "sw", SwitchConfig(radix=4))
    switch.set_default_route((2, 3))
    picks = {}
    for sport in range(50000, 50032):
        frame = _frame(dst_id=7, sport=sport)
        picks.setdefault(switch.route_for(frame), 0)
        picks[switch.route_for(frame)] += 1
        assert switch.route_for(frame) == switch.route_for(frame)
    assert set(picks) == {2, 3}    # both uplinks carry traffic


_FIVE_TUPLES = st.tuples(st.integers(0, 15), st.integers(0, 15),
                         st.sampled_from((6, 17)), st.integers(0, 65535),
                         st.integers(0, 65535))


@settings(max_examples=60, deadline=None)
@given(fives=st.lists(st.one_of(st.none(), _FIVE_TUPLES), min_size=1,
                      max_size=6),
       route_sets=st.lists(st.lists(st.integers(0, 7), min_size=1,
                                    max_size=8, unique=True),
                           min_size=1, max_size=4))
def test_ecmp_memo_returns_the_hashed_choice(fives, route_sets):
    """A switch hashes each (route set, flow) once: its first answer
    and every repeat are ecmp_select() of the flow's hash input, and
    the memo never reaches the checkpoint.  ``None`` stands for a
    frame with no flow 5-tuple, hashed on its MAC pair."""
    def build():
        switch = OutputQueuedSwitch(Simulation(seed=0), "agg1",
                                    SwitchConfig(radix=8))
        for i, outs in enumerate(route_sets):
            switch.add_route(host_mac(100 + i), outs)
        return switch

    switch = build()
    for _repeat in range(2):
        for five in fives:
            for i, outs in enumerate(route_sets):
                frame = Packet(256, dst=host_mac(100 + i), src=host_mac(3),
                               meta={} if five is None else {"flow5": five})
                assert switch.route_for(frame) == ecmp_select(
                    packet_five_tuple(frame), outs, salt="agg1")
    assert switch.serialize_state() == build().serialize_state()


def test_ecmp_memo_is_bounded():
    """More distinct flows than the memo holds: it never grows past its
    cap, and both a flow's first lookup and its repeat are
    ecmp_select()'s choice."""
    switch = OutputQueuedSwitch(Simulation(seed=0), "agg1",
                                SwitchConfig(radix=4))
    outs = (0, 1, 2, 3)
    switch.add_route(host_mac(100), outs)
    for sport in range(3 * ECMP_MEMO_CAP + 7):
        frame = Packet(256, dst=host_mac(100), src=host_mac(3),
                       meta={"flow5": (3, 100, 6, sport, 9000)})
        want = ecmp_select(packet_five_tuple(frame), outs, salt="agg1")
        assert switch.route_for(frame) == want
        assert switch.route_for(frame) == want
        assert len(switch._ecmp_memo) <= ECMP_MEMO_CAP
    assert len(switch._ecmp_memo) == 7


def test_packet_five_tuple_falls_back_to_macs():
    frame = Packet(64, dst=host_mac(2), src=host_mac(1))
    assert packet_five_tuple(frame) == (host_mac(1).value,
                                        host_mac(2).value,
                                        frame.ethertype)


# ----------------------------------------------------------------------
# Checkpoint support
# ----------------------------------------------------------------------

def test_switch_serialize_round_trip():
    sim = Simulation(seed=0)
    switch, _received = _switch_rig(sim)
    for sport in range(3):
        switch.ports[0].deliver(_frame(dst_id=1, sport=50000 + sport))
    switch.ports[0].deliver(_frame(dst_id=9))   # one no-route drop
    _run(sim)
    state = switch.serialize_state()

    sim2 = Simulation(seed=0)
    clone, _ = _switch_rig(sim2)
    clone.deserialize_state(state)
    assert clone._rx == switch._rx
    assert clone._tx == switch._tx
    assert clone._drops == switch._drops
    assert clone._free_at == switch._free_at
    assert [(p.frames_sent, p.frames_received) for p in clone.ports] \
        == [(p.frames_sent, p.frames_received) for p in switch.ports]
    sim2.invariants.check(final=True)


def test_switch_refuses_checkpoint_with_queued_frames():
    """A queued frame is held by its switch, so the fabric refuses a
    checkpoint and names that switch; once the frame leaves, it
    checkpoints."""
    sim = Simulation(seed=0)
    fabric = build_leaf_spine(sim, FabricConfig(topology="leaf_spine"))
    switch = fabric.switches[0]
    switch.ports[0].deliver(_frame(dst_id=1))
    assert switch.held() == 1
    with pytest.raises(CheckpointError,
                       match="not checkpoint-ready") as refused:
        fabric.checkpoint()
    assert f"packets are still held: {switch.name} 1" in str(refused.value)
    _run(sim)
    assert switch.held() == 0
    assert fabric.checkpoint()["meta"]["label"] == fabric.label


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def test_fat_tree_k4_geometry():
    sim = Simulation(seed=0)
    fabric = build_fat_tree(sim, FabricConfig(topology="fat_tree", k=4))
    assert len(fabric.hosts) == 16
    assert len(fabric.switches) == 20    # 8 edge + 8 agg + 4 core
    assert len(fabric.links) == 48       # 16 host + 16 pod + 16 core
    fabric.validate_wiring()
    assert fabric.host_groups() == [h // 4 for h in range(16)]


def test_leaf_spine_geometry():
    sim = Simulation(seed=0)
    fabric = build_leaf_spine(sim, FabricConfig(topology="leaf_spine"))
    assert len(fabric.hosts) == 16
    assert len(fabric.switches) == 6     # 4 leaves + 2 spines
    assert len(fabric.links) == 24       # 16 host + 8 leaf-spine
    fabric.validate_wiring()
    assert fabric.host_groups() == [h // 4 for h in range(16)]


def test_build_fabric_dispatch():
    sim = Simulation(seed=0)
    assert len(build_fabric(sim, FabricConfig(topology="fat_tree",
                                              k=4)).switches) == 20
    sim2 = Simulation(seed=0)
    assert len(build_fabric(sim2, FabricConfig(
        topology="leaf_spine")).switches) == 6


def test_fabric_config_validation():
    with pytest.raises(ValueError):
        FabricConfig(topology="torus")
    with pytest.raises(ValueError):
        FabricConfig(topology="fat_tree", k=3)     # odd k
    with pytest.raises(ValueError):
        FabricConfig(stack="xdp")
    assert FabricConfig(topology="fat_tree", k=4).n_hosts == 16
    assert FabricConfig(topology="leaf_spine", leaves=3,
                        hosts_per_leaf=5).n_hosts == 15


def test_wiring_dot_names_every_tier():
    sim = Simulation(seed=0)
    fabric = build_fat_tree(sim, FabricConfig(topology="fat_tree", k=4),
                            name="ft")
    dot = fabric.wiring_dot()
    for fragment in ("ft.h0", "ft.pod0.edge0", "ft.pod3.agg1", "ft.core3"):
        assert fragment in dot


def test_fat_tree_host_to_host_delivery_and_conservation():
    """A frame from any host reaches exactly its destination host."""
    sim = Simulation(seed=0)
    fabric = build_fat_tree(sim, FabricConfig(topology="fat_tree", k=4,
                                              host_service_ns=30.0))
    src, dst = fabric.hosts[0], fabric.hosts[13]   # cross-pod: via core
    src.send_flow(Flow(flow_id=0, src=0, dst=13, size_bytes=200,
                       start_tick=0))
    _run(sim, us=100.0)
    assert dst._processed == 1
    assert all(h._processed == 0 for h in fabric.hosts if h is not dst)
    assert fabric.quiescent()
    sim.invariants.check(final=True)


def test_leaf_spine_intra_leaf_stays_local():
    """Traffic between hosts on one leaf never touches a spine."""
    sim = Simulation(seed=0)
    fabric = build_leaf_spine(sim, FabricConfig(topology="leaf_spine",
                                                host_service_ns=30.0))
    src, dst = fabric.hosts[0], fabric.hosts[1]    # same leaf
    src.send_flow(Flow(flow_id=0, src=0, dst=1, size_bytes=200,
                       start_tick=0))
    _run(sim, us=100.0)
    assert dst._processed == 1
    spines = [s for s in fabric.switches if ".spine" in s.name]
    assert all(s._rx == 0 for s in spines)
    sim.invariants.check(final=True)
