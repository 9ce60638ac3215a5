"""Unit tests for the typed port/binding layer (repro.sim.ports)."""

import pytest

from repro.sim.ports import (
    CallbackClock,
    ClockDomain,
    KIND_CLOCK,
    KIND_DMA,
    KIND_MEM,
    PacketPort,
    Port,
    PortBindError,
    RequestPort,
    ResponsePort,
    ports_of,
)
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks


class Owner:
    def __init__(self, name):
        self.name = name


class TestBindValidation:
    def test_request_binds_response(self):
        req = RequestPort(Owner("a"), "out", KIND_MEM)
        rsp = ResponsePort(Owner("b"), "in", KIND_MEM)
        req.bind(rsp)
        assert req.bound and rsp.bound
        assert req.peer is rsp and rsp.peer is req

    def test_kind_mismatch_rejected(self):
        req = RequestPort(Owner("a"), "out", KIND_MEM)
        rsp = ResponsePort(Owner("b"), "in", KIND_DMA)
        with pytest.raises(PortBindError, match="kind mismatch"):
            req.bind(rsp)

    def test_role_mismatch_rejected(self):
        a = RequestPort(Owner("a"), "out", KIND_MEM)
        b = RequestPort(Owner("b"), "out", KIND_MEM)
        with pytest.raises(PortBindError, match="role mismatch"):
            a.bind(b)

    def test_self_bind_rejected(self):
        p = PacketPort(Owner("a"), "wire")
        with pytest.raises(PortBindError, match="itself"):
            p.bind(p)

    def test_double_bind_rejected(self):
        rsp = ResponsePort(Owner("srv"), "in", KIND_MEM)
        RequestPort(Owner("a"), "out", KIND_MEM).bind(rsp)
        with pytest.raises(PortBindError, match="already bound"):
            RequestPort(Owner("b"), "out", KIND_MEM).bind(rsp)

    def test_multi_response_accepts_several(self):
        rsp = ResponsePort(Owner("srv"), "in", KIND_MEM, multi=True)
        a = RequestPort(Owner("a"), "out", KIND_MEM).bind(rsp)
        b = RequestPort(Owner("b"), "out", KIND_MEM).bind(rsp)
        assert rsp.peers == [a, b]

    def test_same_pair_cannot_rebind(self):
        rsp = ResponsePort(Owner("srv"), "in", KIND_MEM, multi=True)
        req = RequestPort(Owner("a"), "out", KIND_MEM)
        req.bind(rsp)
        with pytest.raises(PortBindError, match="already bound"):
            req.bind(rsp)

    def test_peer_ports_are_symmetric(self):
        a = PacketPort(Owner("a"), "wire")
        b = PacketPort(Owner("b"), "wire")
        a.bind(b)
        assert a.peer is b and b.peer is a

    def test_non_port_rejected(self):
        req = RequestPort(Owner("a"), "out", KIND_MEM)
        with pytest.raises(PortBindError, match="not a Port"):
            req.bind(object())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown port kind"):
            Port(Owner("a"), "p", "warp", "request")


class TestBindMetadata:
    def test_metadata_recorded_both_sides(self):
        a = PacketPort(Owner("a"), "wire")
        b = PacketPort(Owner("b"), "wire")
        a.bind(b, bandwidth_bits_per_sec=100e9, delay_ticks=5)
        assert a.bind_metadata[0]["bandwidth_bits_per_sec"] == 100e9
        assert b.bind_metadata[0]["delay_ticks"] == 5

    def test_failed_bind_leaves_no_trace(self):
        req = RequestPort(Owner("a"), "out", KIND_MEM)
        rsp = ResponsePort(Owner("b"), "in", KIND_DMA)
        with pytest.raises(PortBindError):
            req.bind(rsp)
        assert not req.bound and not rsp.bound
        assert req.bind_metadata == []


class TestIntrospection:
    def test_full_name(self):
        port = RequestPort(Owner("core0"), "mem_port", KIND_MEM)
        assert port.full_name == "core0.mem_port"

    def test_unowned_port_named(self):
        assert "unowned" in RequestPort(None, "p", KIND_MEM).full_name

    def test_ports_of_creation_order(self):
        owner = Owner("dev")
        owner.first = RequestPort(owner, "first", KIND_MEM)
        owner.second = ResponsePort(owner, "second", KIND_DMA)
        owner.not_a_port = 42
        assert [p.port_name for p in ports_of(owner)] == ["first", "second"]

    def test_ports_of_handles_slots_and_plain_objects(self):
        assert ports_of(object()) == []

    def test_repr_shows_binding_state(self):
        a = PacketPort(Owner("a"), "wire")
        assert "unbound" in repr(a)
        a.bind(PacketPort(Owner("b"), "wire"))
        assert "b.wire" in repr(a)


class TestClockDomain:
    def test_now_ns_matches_sim_time(self):
        sim = Simulation()
        clock = ClockDomain(sim, "clk")
        sim.run(until=us_to_ticks(3))
        assert clock.now_ns() == sim.now / 1000.0
        assert clock.now_ticks() == sim.now

    def test_many_cores_share_one_domain(self):
        clock = ClockDomain(Simulation(), "clk")
        for i in range(3):
            RequestPort(Owner(f"core{i}"), "clock_port",
                        KIND_CLOCK).bind(clock.port)
        assert len(clock.port.peers) == 3

    def test_callback_clock_wraps_callable(self):
        clock = CallbackClock(lambda: 123.5)
        assert clock.now_ns() == 123.5
        RequestPort(Owner("core"), "clock_port", KIND_CLOCK).bind(clock.port)
