"""Properties of the cross-shard link-channel layer.

The conservative-sync safety argument rests on three properties of
:class:`~repro.sim.channel.ChannelHalf` / ``ChannelGroup``:

- frames on one channel deliver in send order (per-channel sequence
  numbers, injected in a deterministic sort);
- no frame ever delivers before ``send time + link latency`` (it also
  pays serialization at line rate first);
- the delivery ticks are *independent of the sync quantum*: any epoch
  length ``q <= link latency`` yields bit-identical delivery times, and
  they equal what a single-process :class:`~repro.nic.phy.EtherLink`
  computes for the same send schedule.

Everything here runs under :class:`InProcessCoupler` — no processes —
which drives the exact ``begin_epoch``/``finish_epoch`` code path the
multiprocess shard runner uses.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import MacAddress, Packet
from repro.nic.phy import EtherLink, EtherPort
from repro.sim.channel import (
    ChannelError,
    ChannelGroup,
    ChannelHalf,
    InProcessCoupler,
    decode_frame,
    encode_frame,
)
from repro.sim.simobject import Simulation
from tests.conftest import check_components

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")

LATENCY = 1_000          # ticks (1 ns): the quantum bound under test
BANDWIDTH = 100e9

#: A send schedule: (gap from previous send, wire_len) per frame.
schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3_000),
              st.integers(min_value=64, max_value=1518)),
    min_size=1, max_size=10)


def _mk_packet(size, index):
    return Packet(size, dst=MAC_B, src=MAC_A,
                  data=index.to_bytes(4, "big"))


def _run_pair(schedule, quantum=None, latency=LATENCY):
    """Send ``schedule`` from shard 0 to shard 1 over a channel pair
    coupled in-process; returns [(delivery tick, payload index), ...]."""
    sim0, sim1 = Simulation(seed=0), Simulation(seed=1)
    half0 = ChannelHalf(sim0, "link", peer_shard=1,
                        bandwidth_bits_per_sec=BANDWIDTH,
                        delay_ticks=latency)
    half1 = ChannelHalf(sim1, "link", peer_shard=0,
                        bandwidth_bits_per_sec=BANDWIDTH,
                        delay_ticks=latency)
    received = []
    half0.attach(EtherPort("n0.port", lambda p: None))
    half1.attach(EtherPort(
        "n1.port",
        lambda p: received.append((sim1.now,
                                   int.from_bytes(p.data, "big")))))
    check_components(sim0, half0)
    check_components(sim1, half1)
    sends = []
    when = 0
    for i, (gap, size) in enumerate(schedule):
        when += gap
        sends.append((when, i))
        sim0.events.call_at(
            when, lambda s=size, i=i: half0.port.send(_mk_packet(s, i)),
            name="test.send")
    coupler = InProcessCoupler({
        0: ChannelGroup(sim0, [half0], quantum_ticks=quantum),
        1: ChannelGroup(sim1, [half1], quantum_ticks=quantum),
    })
    # Advance past the last send, then in chunks until both halves are
    # idle (the busy window is bounded by per-frame serialization at
    # line rate — ~130k ticks for a 1518B frame at 100 Gbps — so the
    # chunk cap is generous).
    target = when + 1
    coupler.advance(target)
    chunk = max(4 * latency, 2_000)
    for _ in range(400):
        if half0.held() == 0 and half1.held() == 0:
            break
        target += chunk
        coupler.advance(target)
    assert half0.held() == 0 and half1.held() == 0
    assert half0.frames_out == len(schedule) == half1.frames_in
    return sends, received


def _run_etherlink(schedule, latency=LATENCY):
    """The same schedule over a plain single-process EtherLink."""
    sim = Simulation(seed=0)
    link = EtherLink(sim, "link", bandwidth_bits_per_sec=BANDWIDTH,
                     delay_ticks=latency)
    received = []
    port_a = EtherPort("n0.port", lambda p: None)
    port_b = EtherPort(
        "n1.port",
        lambda p: received.append((sim.now,
                                   int.from_bytes(p.data, "big"))))
    link.connect(port_a, port_b)
    check_components(sim, link)
    when = 0
    for i, (gap, size) in enumerate(schedule):
        when += gap
        sim.events.call_at(
            when, lambda s=size, i=i: port_a.send(_mk_packet(s, i)),
            name="test.send")
    sim.run(until=when + (len(schedule) + 1) * 130_000 + latency)
    return received


@given(schedules)
@settings(max_examples=40, deadline=None)
def test_channel_delivers_in_order(schedule):
    _sends, received = _run_pair(schedule)
    assert [idx for _tick, idx in received] == list(range(len(schedule)))
    ticks = [tick for tick, _idx in received]
    assert ticks == sorted(ticks)


@given(schedules)
@settings(max_examples=40, deadline=None)
def test_channel_never_beats_the_link_latency(schedule):
    sends, received = _run_pair(schedule)
    send_tick = dict((idx, tick) for tick, idx in sends)
    for tick, idx in received:
        assert tick >= send_tick[idx] + LATENCY, \
            f"frame {idx} sent at {send_tick[idx]} arrived at {tick}"


@given(schedules,
       st.integers(min_value=50, max_value=LATENCY))
@settings(max_examples=25, deadline=None)
def test_delivery_ticks_are_quantum_invariant(schedule, quantum):
    """Any epoch length up to the link latency gives the same delivery
    ticks as the largest legal quantum — and as a real EtherLink."""
    _s, at_quantum = _run_pair(schedule, quantum=quantum)
    _s, at_latency = _run_pair(schedule, quantum=None)
    assert at_quantum == at_latency
    assert at_quantum == _run_etherlink(schedule)


def test_one_tick_quantum_matches_etherlink():
    """The degenerate epoch length (one tick) still reproduces the
    single-process delivery ticks — kept deterministic and small since
    it costs one epoch per tick."""
    schedule = [(0, 64), (100, 128), (0, 300)]
    _s, received = _run_pair(schedule, quantum=1, latency=80)
    assert received == _run_etherlink(schedule, latency=80)


@given(st.integers(min_value=64, max_value=1518),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=40, deadline=None)
def test_frame_codec_round_trips(size, tag):
    packet = Packet(size, dst=MAC_B, src=MAC_A, ethertype=0x88B5,
                    data=bytes([tag]), ts_tx=tag * 7, request_id=tag,
                    meta={"flow": tag})
    decoded = decode_frame(encode_frame(packet))
    # Equal in every field except packet_id, a process-local counter.
    decoded.packet_id = packet.packet_id
    assert decoded == packet
    assert decoded.meta == packet.meta


# ----------------------------------------------------------------------
# Protocol-violation paths fail loudly rather than corrupt time.
# ----------------------------------------------------------------------

def test_quantum_above_link_latency_is_rejected():
    sim = Simulation(seed=0)
    half = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=100)
    with pytest.raises(ChannelError, match="exceeds the minimum"):
        ChannelGroup(sim, [half], quantum_ticks=101)


def test_zero_latency_channel_is_rejected():
    sim = Simulation(seed=0)
    with pytest.raises(ValueError, match="positive link latency"):
        ChannelHalf(sim, "link", peer_shard=1, delay_ticks=0)


def test_injecting_into_the_past_is_rejected():
    sim = Simulation(seed=0)
    half = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=100)
    half.attach(EtherPort("n0.port", lambda p: None))
    check_components(sim, half)
    sim.events.call_at(500, lambda: None, name="test.noop")
    sim.run(until=500)
    with pytest.raises(ChannelError, match="epoch skew"):
        half.inject(400, encode_frame(_mk_packet(64, 0)))


def test_drain_rejects_frames_inside_the_epoch():
    # A frame due at or before the epoch boundary means the quantum
    # exceeded the link latency: drain must refuse to ship it.
    sim = Simulation(seed=0)
    half = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=100)
    half.attach(EtherPort("n0.port", lambda p: None))
    half.transmit(half.port, _mk_packet(64, 0))
    deliver_at = half._outbox[0][0]
    with pytest.raises(ChannelError, match="quantum must not exceed"):
        half.drain(deliver_at)


def test_duplicate_channel_names_are_rejected():
    sim = Simulation(seed=0)
    a = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=100)
    b = ChannelHalf(sim, "link2", peer_shard=1, delay_ticks=100)
    b.name = "link"
    with pytest.raises(ChannelError, match="duplicate channel name"):
        ChannelGroup(sim, [a, b])
