"""The EtherLoadGen simulation object (paper §IV).

A hardware traffic generator with one Ethernet port.  Unlike a simulated
Drive Node, it introduces no client-side queuing and no measurement
perturbation: packets depart exactly on schedule and every returning
packet's timestamp is matched against the current tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.loadgen.distributions import make_inter_arrival
from repro.loadgen.latency import LatencyTracker
from repro.net.headers import build_udp_frame
from repro.net.packet import (
    ETHER_MAX_FRAME,
    ETHER_MIN_FRAME,
    MacAddress,
    Packet,
)
from repro.net.pcap import PcapRecord
from repro.nic.phy import EtherPort
from repro.sim.checkpoint import Stateful
from repro.sim.simobject import SimObject, Simulation
from repro.sim.ticks import TICKS_PER_SEC, ns_to_ticks

DEFAULT_SRC_MAC = MacAddress.parse("02:00:00:00:00:01")
DEFAULT_DST_MAC = MacAddress.parse("02:00:00:00:00:02")


def pps_for_gbps(gbps: float, wire_len: int) -> float:
    """Packets/second for a target *goodput* bandwidth (frame bits only,
    matching how the paper reports network throughput)."""
    if gbps <= 0:
        raise ValueError("bandwidth must be positive")
    return gbps * 1e9 / (wire_len * 8)


def gbps_for_pps(pps: float, wire_len: int) -> float:
    """Goodput bandwidth for a packet rate and frame size."""
    return pps * wire_len * 8 / 1e9


@dataclass(frozen=True)
class SyntheticConfig:
    """Synthetic-mode parameters.

    ``protocol``: "ethernet" sends plain Ethernet frames (the paper's
    supported synthetic protocol); "udp" wraps the payload in IPv4/UDP
    headers — the connection-less extension §IV says "can be supported
    with minimal effort".
    """

    packet_size: int = 64              # wire length incl. CRC
    rate_gbps: float = 10.0
    distribution: str = "fixed"
    count: Optional[int] = 10000       # packets to send (None = unbounded)
    ts_offset: int = 0                 # byte offset of embedded timestamp
    expect_responses: bool = True      # forwarding app echoes packets back
    protocol: str = "ethernet"         # "ethernet" | "udp"

    def __post_init__(self) -> None:
        if not ETHER_MIN_FRAME <= self.packet_size <= ETHER_MAX_FRAME:
            raise ValueError(
                f"packet size {self.packet_size} outside "
                f"[{ETHER_MIN_FRAME}, {ETHER_MAX_FRAME}]")
        if self.protocol not in ("ethernet", "udp"):
            raise ValueError(f"unknown synthetic protocol {self.protocol!r}")
        if self.protocol == "udp" and self.packet_size < 64:
            raise ValueError("udp frames need at least 64 wire bytes")

    @property
    def rate_pps(self) -> float:
        """Configured rate expressed in packets/second."""
        return pps_for_gbps(self.rate_gbps, self.packet_size)


@dataclass(frozen=True)
class TraceConfig:
    """Trace-replay parameters."""

    records: Sequence[PcapRecord] = ()
    use_trace_timestamps: bool = True
    rate_gbps: Optional[float] = None   # override pacing when not None
    rewrite_dst: bool = True            # patch dst MAC to the test node's
    expect_responses: bool = True

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("trace mode needs at least one record")
        if not self.use_trace_timestamps and self.rate_gbps is None:
            raise ValueError(
                "need either trace timestamps or an explicit rate")


@dataclass(frozen=True)
class RampConfig:
    """Bandwidth-test mode: step the rate up and find the MSB knee."""

    packet_size: int = 64
    start_gbps: float = 1.0
    step_gbps: float = 1.0
    num_steps: int = 16
    packets_per_step: int = 1000
    distribution: str = "fixed"
    expect_responses: bool = True

    def __post_init__(self) -> None:
        if self.num_steps < 1 or self.packets_per_step < 1:
            raise ValueError("ramp needs at least one step and packet")
        if self.start_gbps <= 0 or self.step_gbps <= 0:
            raise ValueError("ramp rates must be positive")

    def step_rate(self, step: int) -> float:
        """Offered rate of ramp step ``step`` in Gbps."""
        return self.start_gbps + step * self.step_gbps


@dataclass
class RampStepResult:
    """Outcome of one ramp step."""

    gbps_offered: float
    sent: int
    received: int

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets that were lost."""
        if self.sent == 0:
            return 0.0
        return max(0.0, 1.0 - self.received / self.sent)


class EtherLoadGen(Stateful, SimObject):
    """Hardware load generator with a single Ethernet port."""

    def __init__(self, sim: Simulation, name: str,
                 dst_mac: MacAddress = DEFAULT_DST_MAC,
                 src_mac: MacAddress = DEFAULT_SRC_MAC) -> None:
        super().__init__(sim, name)
        self.dst_mac = dst_mac
        self.src_mac = src_mac
        self.port = EtherPort(f"{name}.port", self._on_rx, owner=self)
        self.latency = LatencyTracker(name)
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self._seq = 0
        self._sending = False
        self._send_event = self.make_event(self._send_next, "send")
        # Synthetic / trace iteration state.
        self._synth: Optional[SyntheticConfig] = None
        self._trace: Optional[TraceConfig] = None
        self._trace_index = 0
        self._trace_base_tick = 0
        self._inter_arrival = None
        self._remaining: Optional[int] = None
        # Ramp state.
        self._ramp: Optional[RampConfig] = None
        self._ramp_step = -1
        self._step_sent: List[int] = []
        self._step_received: List[int] = []
        self.first_tx_tick: Optional[int] = None
        self.last_tx_tick: Optional[int] = None
        # Measurement epoch: bumped on stats reset so responses to packets
        # sent before the reset (still in flight) are not miscounted.
        self._epoch = 0
        self.stale_rx = 0
        # The port's lifetime frames_received at the last reset, so the
        # window's responses are checked against the window's frames.
        self._rx_at_reset = 0

    def invariant_failures(self, final: bool = True):
        """Port accounting: every frame the port received since the last
        measurement reset is one of the epoch's responses or a stale
        one."""
        received = self.port.frames_received - self._rx_at_reset
        if self.rx_packets + self.stale_rx != received:
            return [
                f"port-accounting: epoch rx ({self.rx_packets}) + stale rx "
                f"({self.stale_rx}) != port rx since reset ({received})"]
        return []

    # ------------------------------------------------------------------
    # Mode start/stop
    # ------------------------------------------------------------------

    def start_synthetic(self, config: SyntheticConfig, when: int = 0) -> None:
        """Begin synthetic-mode generation at tick ``when`` (or now)."""
        self._ensure_idle()
        self._synth = config
        self._remaining = config.count
        self._inter_arrival = make_inter_arrival(
            config.distribution, config.rate_pps,
            self.sim.rng.fork(f"{self.name}.synth"))
        self._sending = True
        self.schedule(self._send_event, max(when, self.now))

    def start_trace(self, config: TraceConfig, when: int = 0) -> None:
        """Begin trace replay at tick ``when`` (or now)."""
        self._ensure_idle()
        self._trace = config
        self._trace_index = 0
        start = max(when, self.now)
        self._trace_base_tick = start
        if config.rate_gbps is not None and not config.use_trace_timestamps:
            mean_size = sum(r.wire_len for r in config.records) / len(
                config.records)
            self._inter_arrival = make_inter_arrival(
                "fixed", pps_for_gbps(config.rate_gbps, max(64, int(mean_size))),
                self.sim.rng.fork(f"{self.name}.trace"))
        self._sending = True
        self.schedule(self._send_event, start)

    def start_ramp(self, config: RampConfig, when: int = 0) -> None:
        """Begin bandwidth-test mode at tick ``when`` (or now)."""
        self._ensure_idle()
        self._ramp = config
        self._ramp_step = 0
        self._step_sent = [0] * config.num_steps
        self._step_received = [0] * config.num_steps
        self._remaining = config.packets_per_step
        self._inter_arrival = make_inter_arrival(
            config.distribution,
            pps_for_gbps(config.step_rate(0), config.packet_size),
            self.sim.rng.fork(f"{self.name}.ramp"))
        self._sending = True
        self.schedule(self._send_event, max(when, self.now))

    def stop(self) -> None:
        """Stop operation; pending events are cancelled."""
        self._sending = False
        if self._send_event.scheduled:
            self.deschedule(self._send_event)

    def _ensure_idle(self) -> None:
        if self._sending:
            raise RuntimeError(f"{self.name} is already generating traffic")

    @property
    def active(self) -> bool:
        """True while traffic generation is in progress."""
        return self._sending

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def _send_next(self) -> None:
        if not self._sending:
            return
        if self._trace is not None:
            self._send_trace_packet()
        else:
            self._send_synthetic_packet()

    def _build_packet(self, size: int, step: Optional[int]) -> Packet:
        if self._synth is not None and self._synth.protocol == "udp":
            # Ethernet(14) + IPv4(20) + UDP(8) + payload + CRC(4) = size.
            payload_len = max(0, size - 14 - 20 - 8 - 4)
            packet = build_udp_frame(
                src_mac=self.src_mac, dst_mac=self.dst_mac,
                src_ip=0x0A000001, dst_ip=0x0A000002,
                src_port=7001, dst_port=7000,
                payload=bytes(payload_len),
                identification=self._seq & 0xFFFF)
            packet.ts_tx = self.now
            packet.request_id = self._seq
        else:
            packet = Packet(
                wire_len=size,
                dst=self.dst_mac,
                src=self.src_mac,
                ts_tx=self.now,
                ts_offset=(self._synth.ts_offset if self._synth else 0),
                request_id=self._seq,
            )
        packet.meta["epoch"] = self._epoch
        if step is not None:
            packet.meta["ramp_step"] = step
        self._seq += 1
        return packet

    def _emit(self, packet: Packet) -> None:
        self.tx_packets += 1
        self.tx_bytes += packet.wire_len
        if self.first_tx_tick is None:
            self.first_tx_tick = self.now
        self.last_tx_tick = self.now
        if self.sim.tracer.enabled:
            self.trace("loadgen", "tx", bytes=packet.wire_len,
                       request_id=packet.request_id)
        self.port.send(packet)

    def _send_synthetic_packet(self) -> None:
        if self._ramp is not None:
            self._send_ramp_packet()
            return
        config = self._synth
        packet = self._build_packet(config.packet_size, None)
        self._emit(packet)
        if self._remaining is not None:
            self._remaining -= 1
            if self._remaining <= 0:
                self._sending = False
                return
        self.schedule_after(self._send_event,
                            self._inter_arrival.next_gap_ticks())

    def _send_ramp_packet(self) -> None:
        config = self._ramp
        packet = self._build_packet(config.packet_size, self._ramp_step)
        self._emit(packet)
        self._step_sent[self._ramp_step] += 1
        self._remaining -= 1
        if self._remaining <= 0:
            self._ramp_step += 1
            if self._ramp_step >= config.num_steps:
                self._sending = False
                return
            self._remaining = config.packets_per_step
            self._inter_arrival = make_inter_arrival(
                config.distribution,
                pps_for_gbps(config.step_rate(self._ramp_step),
                             config.packet_size),
                self.sim.rng.fork(f"{self.name}.ramp{self._ramp_step}"))
        self.schedule_after(self._send_event,
                            self._inter_arrival.next_gap_ticks())

    def _send_trace_packet(self) -> None:
        config = self._trace
        record = config.records[self._trace_index]
        packet = Packet.from_bytes(record.data)
        if config.rewrite_dst:
            # "It then modifies the destination physical address in the
            # packet's Ethernet header to match the one in the simulated
            # system." (§IV)
            packet.dst = self.dst_mac
        packet.ts_tx = self.now
        packet.request_id = self._seq
        packet.meta["epoch"] = self._epoch
        self._seq += 1
        self._emit(packet)
        self._trace_index += 1
        if self._trace_index >= len(config.records):
            self._sending = False
            return
        if config.use_trace_timestamps:
            prev_ns = config.records[self._trace_index - 1].ts_ns
            next_ns = config.records[self._trace_index].ts_ns
            gap = max(1, ns_to_ticks(next_ns - prev_ns))
        else:
            gap = self._inter_arrival.next_gap_ticks()
        self.schedule_after(self._send_event, gap)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def _on_rx(self, packet: Packet) -> None:
        if self.sim.tracer.enabled:
            self.trace("loadgen", "rx", bytes=packet.wire_len,
                       request_id=packet.request_id,
                       stale=packet.meta.get("epoch") != self._epoch)
        if packet.meta.get("epoch") != self._epoch:
            self.stale_rx += 1
            return
        self.rx_packets += 1
        self.rx_bytes += packet.wire_len
        if packet.ts_tx is not None:
            self.latency.record(packet.ts_tx, self.now)
        step = packet.meta.get("ramp_step")
        if step is not None and self._step_received:
            if 0 <= step < len(self._step_received):
                self._step_received[step] += 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def drop_rate(self) -> float:
        """End-to-end drop fraction (sent but never returned)."""
        if self.tx_packets == 0:
            return 0.0
        return max(0.0, 1.0 - self.rx_packets / self.tx_packets)

    def offered_gbps(self) -> float:
        """Average offered load over the generation interval."""
        if (self.first_tx_tick is None or self.last_tx_tick is None
                or self.tx_packets < 2):
            return 0.0
        elapsed = self.last_tx_tick - self.first_tx_tick
        if elapsed <= 0:
            return 0.0
        return self.tx_bytes * 8 * TICKS_PER_SEC / elapsed / 1e9

    def ramp_results(self) -> List[RampStepResult]:
        """Per-step outcomes of bandwidth-test mode."""
        if self._ramp is None:
            raise RuntimeError("not in bandwidth-test mode")
        return [
            RampStepResult(
                gbps_offered=self._ramp.step_rate(step),
                sent=self._step_sent[step],
                received=self._step_received[step])
            for step in range(self._ramp.num_steps)
        ]

    def msb_gbps(self, drop_threshold: float = 0.01) -> float:
        """Maximum sustainable bandwidth: highest offered rate whose drop
        rate stays at or below ``drop_threshold`` (paper §VII.C defines MSB
        as the point where drops exceed 1%)."""
        best = 0.0
        for result in self.ramp_results():
            if result.sent == 0:
                continue
            if result.drop_rate <= drop_threshold:
                best = max(best, result.gbps_offered)
            else:
                break
        return best

    # -- measurement and checkpoint support --------------------------------

    measured_fields = ("tx_packets", "tx_bytes", "rx_packets", "rx_bytes",
                       "stale_rx", "latency")

    def reset_measurement(self) -> None:
        """Also forget the window's first/last send, start a new epoch,
        so responses to earlier sends count as stale, and note where the
        port's receive count stands."""
        super().reset_measurement()
        self.first_tx_tick = None
        self.last_tx_tick = None
        self._epoch += 1
        self._rx_at_reset = self.port.frames_received

    # Counters, epoch, and sequence state.  The generator must be stopped
    # (the rig refuses while it is ``active``): mode configs and the
    # inter-arrival sampler are rebuilt by the next ``start_*`` call, so
    # an in-progress generation phase cannot be captured faithfully.
    state_fields = ("_seq", "_epoch", "_rx_at_reset", "first_tx_tick",
                    "last_tx_tick", "_remaining", "_trace_index",
                    "_trace_base_tick", "_ramp_step", "_step_sent",
                    "_step_received", "port") + measured_fields
