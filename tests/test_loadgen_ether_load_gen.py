"""Unit tests for the EtherLoadGen simulation object (paper §IV)."""

import pytest

from repro.loadgen.ether_load_gen import (
    EtherLoadGen,
    RampConfig,
    SyntheticConfig,
    TraceConfig,
    gbps_for_pps,
    pps_for_gbps,
)
from repro.net.packet import MacAddress, Packet
from repro.net.pcap import PcapRecord
from repro.nic.phy import EtherLink, EtherPort
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from tests.conftest import check_components


class Reflector:
    """Echoes every n-th frame back (drop_every=0 echoes all)."""

    def __init__(self, sim, drop_every=0, delay_ticks=0):
        self.sim = sim
        self.drop_every = drop_every
        self.delay_ticks = delay_ticks
        self.count = 0
        self.port = EtherPort("reflector", self._on_rx)

    def _on_rx(self, packet):
        self.count += 1
        if self.drop_every and self.count % self.drop_every == 0:
            return
        response = packet.response_to()
        self.sim.events.call_after(
            self.delay_ticks, lambda: self.port.send(response))


def build(drop_every=0, link_delay=0):
    sim = Simulation(seed=1)
    loadgen = EtherLoadGen(sim, "lg")
    reflector = Reflector(sim, drop_every=drop_every)
    link = EtherLink(sim, "link", delay_ticks=link_delay)
    link.connect(loadgen.port, reflector.port)
    check_components(sim, loadgen, link)
    return sim, loadgen, reflector


class TestSynthetic:
    def test_sends_exact_count(self):
        sim, loadgen, reflector = build()
        loadgen.start_synthetic(SyntheticConfig(packet_size=64,
                                                rate_gbps=10.0, count=100))
        sim.run(until=us_to_ticks(1000))
        assert loadgen.tx_packets == 100
        assert reflector.count == 100

    def test_rate_is_respected(self):
        sim, loadgen, _reflector = build()
        loadgen.start_synthetic(SyntheticConfig(packet_size=1518,
                                                rate_gbps=12.144, count=500))
        sim.run(until=us_to_ticks(10_000))
        # 12.144 Gbps at 1518B = 1 Mpps -> 500 packets in ~499 us.
        assert loadgen.offered_gbps() == pytest.approx(12.144, rel=0.01)

    def test_all_responses_received(self):
        sim, loadgen, _reflector = build()
        loadgen.start_synthetic(SyntheticConfig(packet_size=64,
                                                rate_gbps=1.0, count=50))
        sim.run(until=us_to_ticks(10_000))
        assert loadgen.rx_packets == 50
        assert loadgen.drop_rate == 0.0

    def test_drop_rate_counts_missing_responses(self):
        sim, loadgen, _reflector = build(drop_every=2)
        loadgen.start_synthetic(SyntheticConfig(packet_size=64,
                                                rate_gbps=1.0, count=100))
        sim.run(until=us_to_ticks(10_000))
        assert loadgen.drop_rate == pytest.approx(0.5)

    def test_latency_measured_via_timestamp(self):
        sim = Simulation(seed=1)
        loadgen = EtherLoadGen(sim, "lg")
        reflector = Reflector(sim, delay_ticks=us_to_ticks(10))
        link = EtherLink(sim, "link", delay_ticks=us_to_ticks(100))
        link.connect(loadgen.port, reflector.port)
        check_components(sim, loadgen, link)
        loadgen.start_synthetic(SyntheticConfig(packet_size=64,
                                                rate_gbps=1.0, count=10))
        sim.run(until=us_to_ticks(10_000))
        # RTT = 2x100us link + 10us reflector + serialization.
        assert loadgen.latency.summary()["mean"] == pytest.approx(210.0,
                                                                  abs=1.0)

    def test_cannot_start_twice(self):
        _sim, loadgen, _reflector = build()
        loadgen.start_synthetic(SyntheticConfig(count=10))
        with pytest.raises(RuntimeError):
            loadgen.start_synthetic(SyntheticConfig(count=10))

    def test_stop_halts_sending(self):
        sim, loadgen, _reflector = build()
        loadgen.start_synthetic(SyntheticConfig(packet_size=64,
                                                rate_gbps=1.0, count=1000))
        sim.run(until=us_to_ticks(50))
        loadgen.stop()
        sent = loadgen.tx_packets
        sim.run(until=us_to_ticks(5000))
        assert loadgen.tx_packets == sent

    def test_distributions_accepted(self):
        for dist in ("fixed", "exponential", "uniform"):
            sim, loadgen, _r = build()
            loadgen.start_synthetic(SyntheticConfig(
                packet_size=64, rate_gbps=1.0, count=20, distribution=dist))
            sim.run(until=us_to_ticks(10_000))
            assert loadgen.tx_packets == 20

    def test_packet_size_validated(self):
        with pytest.raises(ValueError):
            SyntheticConfig(packet_size=32)
        with pytest.raises(ValueError):
            SyntheticConfig(packet_size=2000)


class TestEpoch:
    def test_stale_responses_ignored_after_reset(self):
        sim = Simulation(seed=1)
        loadgen = EtherLoadGen(sim, "lg")
        reflector = Reflector(sim, delay_ticks=us_to_ticks(500))
        link = EtherLink(sim, "link")
        link.connect(loadgen.port, reflector.port)
        check_components(sim, loadgen, link)
        loadgen.start_synthetic(SyntheticConfig(packet_size=64,
                                                rate_gbps=1.0, count=None))
        sim.run(until=us_to_ticks(100))
        loadgen.reset_measurement()   # earlier sends still in flight
        sim.run(until=us_to_ticks(2000))
        loadgen.stop()
        sim.run(until=us_to_ticks(4000))
        assert loadgen.stale_rx > 0
        assert loadgen.rx_packets <= loadgen.tx_packets


class TestRamp:
    def test_step_accounting(self):
        sim, loadgen, _reflector = build()
        loadgen.start_ramp(RampConfig(packet_size=64, start_gbps=1.0,
                                      step_gbps=1.0, num_steps=3,
                                      packets_per_step=50))
        sim.run(until=us_to_ticks(50_000))
        results = loadgen.ramp_results()
        assert len(results) == 3
        assert all(r.sent == 50 for r in results)
        assert all(r.drop_rate == 0.0 for r in results)
        assert [r.gbps_offered for r in results] == [1.0, 2.0, 3.0]

    def test_msb_with_lossless_reflector_is_top_step(self):
        sim, loadgen, _reflector = build()
        loadgen.start_ramp(RampConfig(packet_size=64, start_gbps=1.0,
                                      step_gbps=1.0, num_steps=4,
                                      packets_per_step=30))
        sim.run(until=us_to_ticks(50_000))
        assert loadgen.msb_gbps() == 4.0

    def test_msb_stops_at_first_breach(self):
        sim, loadgen, reflector = build()
        loadgen.start_ramp(RampConfig(packet_size=64, start_gbps=1.0,
                                      step_gbps=1.0, num_steps=4,
                                      packets_per_step=30))
        # Break the reflector from step 2 onward.
        def breaker():
            reflector.drop_every = 2
        sim.events.call_after(
            us_to_ticks(2), lambda: None)   # placeholder, computed below
        # Run step 1 cleanly, then degrade.
        sim.run(until=us_to_ticks(20))
        breaker()
        sim.run(until=us_to_ticks(50_000))
        assert loadgen.msb_gbps() <= 2.0

    def test_ramp_results_require_ramp_mode(self):
        _sim, loadgen, _reflector = build()
        with pytest.raises(RuntimeError):
            loadgen.ramp_results()

    def test_config_validated(self):
        with pytest.raises(ValueError):
            RampConfig(num_steps=0)
        with pytest.raises(ValueError):
            RampConfig(start_gbps=0)


class TestTraceMode:
    def _records(self, n=5, gap_ns=1000, size=128):
        frames = []
        for i in range(n):
            packet = Packet(wire_len=size,
                            dst=MacAddress.parse("02:00:00:00:00:99"),
                            src=MacAddress.parse("02:00:00:00:00:01"))
            frames.append(PcapRecord(ts_ns=i * gap_ns,
                                     data=packet.to_bytes()))
        return frames

    def test_replays_all_records(self):
        sim, loadgen, reflector = build()
        loadgen.start_trace(TraceConfig(records=self._records(8)))
        sim.run(until=us_to_ticks(10_000))
        assert loadgen.tx_packets == 8
        assert reflector.count == 8

    def test_trace_timestamps_pace_replay(self):
        sim, loadgen, _reflector = build()
        loadgen.start_trace(TraceConfig(records=self._records(5,
                                                              gap_ns=10_000)))
        sim.run(until=us_to_ticks(10_000))
        assert loadgen.last_tx_tick - loadgen.first_tx_tick == \
            4 * 10_000 * 1000

    def test_dst_mac_rewritten(self):
        """§IV: 'modifies the destination physical address in the packet's
        Ethernet header to match the one in the simulated system.'"""
        sim = Simulation(seed=1)
        loadgen = EtherLoadGen(sim, "lg",
                               dst_mac=MacAddress.parse("02:00:00:00:00:02"))
        received = []
        sink = EtherPort("sink", received.append)
        link = EtherLink(sim, "link")
        link.connect(loadgen.port, sink)
        check_components(sim, loadgen, link)
        loadgen.start_trace(TraceConfig(records=self._records(3)))
        sim.run(until=us_to_ticks(10_000))
        assert all(str(p.dst) == "02:00:00:00:00:02" for p in received)

    def test_rewrite_can_be_disabled(self):
        sim = Simulation(seed=1)
        loadgen = EtherLoadGen(sim, "lg",
                               dst_mac=MacAddress.parse("02:00:00:00:00:02"))
        received = []
        link = EtherLink(sim, "link")
        link.connect(loadgen.port, EtherPort("sink", received.append))
        check_components(sim, loadgen, link)
        loadgen.start_trace(TraceConfig(records=self._records(1),
                                        rewrite_dst=False))
        sim.run(until=us_to_ticks(10_000))
        assert str(received[0].dst) == "02:00:00:00:00:99"

    def test_fixed_rate_override(self):
        sim, loadgen, _reflector = build()
        records = self._records(10, gap_ns=1)
        loadgen.start_trace(TraceConfig(records=records,
                                        use_trace_timestamps=False,
                                        rate_gbps=1.0))
        sim.run(until=us_to_ticks(100_000))
        assert loadgen.tx_packets == 10
        # 1 Gbps at ~124B captured frames -> ~1us gaps, not 1ns.
        assert loadgen.last_tx_tick - loadgen.first_tx_tick > 8 * 1_000_000

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(records=[])

    def test_rate_required_without_timestamps(self):
        with pytest.raises(ValueError):
            TraceConfig(records=self._records(1),
                        use_trace_timestamps=False)


class TestRateHelpers:
    def test_pps_gbps_round_trip(self):
        pps = pps_for_gbps(10.0, 256)
        assert gbps_for_pps(pps, 256) == pytest.approx(10.0)

    def test_known_value(self):
        # 1518B at ~1 Mpps is ~12.1 Gbps.
        assert pps_for_gbps(12.144, 1518) == pytest.approx(1e6)
