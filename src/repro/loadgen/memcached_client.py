"""Memcached client personality for EtherLoadGen.

"We have enabled EtherLoadGen to send GET and SET requests to the
memcached server, with configurable sizes for keys and values ... To keep
track of per-request latency, the hardware EtherLoadGen model tracks a map
of outstanding requests using the request ID field in the Memcached
request packet." (paper §IV, §VI.A)

The client generates the paper's workload: keys/values with Zipfian sizes
(min=10, max=100, skew=0.5), 5000 warm keys, 10000 measured requests at a
GET/SET ratio of 80%.  Warm-up can be *functional* (direct store
population, mirroring the paper's functional-CPU warm-up phase) or
packet-driven.  The client can also export its request stream as a PCAP
trace (the dpdk-pdump integration of §IV) for EtherLoadGen's trace mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.kvstore.protocol import (
    GetRequest,
    GetResponse,
    SetRequest,
    SetResponse,
    decode_response,
    encode_request,
)
from repro.kvstore.zipf import ZipfianGenerator
from repro.loadgen.distributions import make_inter_arrival
from repro.loadgen.latency import LatencyTracker
from repro.net.headers import build_udp_frame, parse_udp_frame
from repro.net.packet import MacAddress, Packet
from repro.net.pcap import PcapWriter
from repro.nic.phy import EtherPort
from repro.sim.checkpoint import Stateful
from repro.sim.simobject import SimObject, Simulation
from repro.sim.ticks import TICKS_PER_SEC

CLIENT_IP = 0x0A000001    # 10.0.0.1
SERVER_IP = 0x0A000002    # 10.0.0.2
MEMCACHED_PORT = 11211
CLIENT_PORT = 40000


def make_key(index: int, size_gen: ZipfianGenerator) -> bytes:
    """Key number ``index`` with a length drawn from ``size_gen``: the
    8-digit index prefix keeps keys unique even after truncation, and
    lengths are at least 10 per the paper's min=10."""
    key_len = max(size_gen.sample(), 10)
    base = f"{index:08d}-k".encode()
    if len(base) >= key_len:
        return base[:key_len]
    return base + b"x" * (key_len - len(base))


@dataclass(frozen=True)
class MemcachedClientConfig:
    """The paper's memcached workload parameters (§VI.A)."""

    n_warm_keys: int = 5000
    n_requests: int = 10000
    get_fraction: float = 0.80
    size_min: int = 10
    size_max: int = 100
    size_skew: float = 0.5
    rate_rps: float = 200_000.0
    distribution: str = "fixed"

    def __post_init__(self) -> None:
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ValueError("get fraction must be in [0, 1]")
        if self.n_warm_keys < 1 or self.n_requests < 1:
            raise ValueError("need at least one key and one request")
        if self.rate_rps <= 0:
            raise ValueError("request rate must be positive")


class MemcachedClient(Stateful, SimObject):
    """Open-loop memcached request generator with outstanding-request map."""

    def __init__(self, sim: Simulation, name: str,
                 config: MemcachedClientConfig,
                 dst_mac: MacAddress, src_mac: MacAddress) -> None:
        super().__init__(sim, name)
        self.config = config
        self.dst_mac = dst_mac
        self.src_mac = src_mac
        self.port = EtherPort(f"{name}.port", self._on_rx, owner=self)
        self.latency = LatencyTracker(name)
        rng = sim.rng.fork(f"{name}.workload")
        self._workload_rng = rng
        self._size_gen = ZipfianGenerator(
            config.size_min, config.size_max, config.size_skew, rng)
        self._keys: List[bytes] = [
            make_key(i, self._size_gen) for i in range(config.n_warm_keys)]
        self._values: Dict[bytes, bytes] = {
            key: bytes(self._size_gen.sample()) for key in self._keys}
        self.outstanding: Dict[int, Tuple[int, str]] = {}
        self._next_request_id = 1
        self._warm_remaining = 0
        self._inter_arrival = None
        self._send_event = self.make_event(self._send_next, "send")
        self._sending = False
        # Results.
        self.requests_sent = 0
        self.responses_received = 0
        self.get_hits = 0
        self.get_misses = 0
        self.sets_acked = 0
        self.first_tx_tick: Optional[int] = None
        self.last_tx_tick: Optional[int] = None

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------

    def preload(self, store) -> int:
        """Functional warm-up: populate the server's KvStore directly,
        mirroring the paper's functional-CPU warm-up phase.  Returns the
        number of keys loaded."""
        for key in self._keys:
            store.set(key, self._values[key])
        return len(self._keys)

    # ------------------------------------------------------------------
    # Request generation
    # ------------------------------------------------------------------

    def _next_request(self):
        key = self._workload_rng.choice(self._keys)
        if self._workload_rng.bernoulli(self.config.get_fraction):
            return GetRequest(request_id=self._next_request_id, key=key)
        value = bytes(self._size_gen.sample())
        return SetRequest(request_id=self._next_request_id, key=key,
                          value=value)

    def _frame_for(self, request) -> Packet:
        payload = encode_request(request)
        packet = build_udp_frame(
            src_mac=self.src_mac, dst_mac=self.dst_mac,
            src_ip=CLIENT_IP, dst_ip=SERVER_IP,
            src_port=CLIENT_PORT, dst_port=MEMCACHED_PORT,
            payload=payload, identification=request.request_id & 0xFFFF)
        packet.request_id = request.request_id
        return packet

    def start(self, when: int = 0) -> None:
        """Begin the measured request phase."""
        if self._sending:
            raise RuntimeError(f"{self.name} is already running")
        self._sending = True
        self._warm_remaining = 0
        self._inter_arrival = make_inter_arrival(
            self.config.distribution, self.config.rate_rps,
            self.sim.rng.fork(f"{self.name}.arrivals"))
        self.schedule(self._send_event, max(when, self.now))

    def run_warmup(self, n_requests: int, rate_rps: float,
                   when: int = 0) -> None:
        """Send ``n_requests`` warm-up requests (not measured) to bring the
        server's microarchitectural state to steady state — the packet
        analogue of the paper's warm-up phase."""
        if self._sending:
            raise RuntimeError(f"{self.name} is already running")
        if n_requests < 1 or rate_rps <= 0:
            raise ValueError("warm-up needs positive count and rate")
        self._sending = True
        self._warm_remaining = n_requests
        self._inter_arrival = make_inter_arrival(
            self.config.distribution, rate_rps,
            self.sim.rng.fork(f"{self.name}.warmup"))
        self.schedule(self._send_event, max(when, self.now))

    def stop(self) -> None:
        """Stop operation; pending events are cancelled."""
        self._sending = False
        if self._send_event.scheduled:
            self.deschedule(self._send_event)

    @property
    def active(self) -> bool:
        """True while traffic generation is in progress."""
        return self._sending

    def _send_next(self) -> None:
        if not self._sending:
            return
        warm = self._warm_remaining > 0
        request = self._next_request()
        kind = "get" if isinstance(request, GetRequest) else "set"
        if warm:
            kind = f"warm-{kind}"
        self.outstanding[request.request_id] = (self.now, kind)
        self._next_request_id += 1
        packet = self._frame_for(request)
        if warm:
            self._warm_remaining -= 1
            self.port.send(packet)
            if self._warm_remaining == 0:
                self._sending = False
                return
        else:
            if self.first_tx_tick is None:
                self.first_tx_tick = self.now
            self.last_tx_tick = self.now
            self.requests_sent += 1
            self.port.send(packet)
            if self.requests_sent >= self.config.n_requests:
                self._sending = False
                return
        self.schedule_after(self._send_event,
                            self._inter_arrival.next_gap_ticks())

    # ------------------------------------------------------------------
    # Response path
    # ------------------------------------------------------------------

    def _on_rx(self, packet: Packet) -> None:
        try:
            _ip, _udp, payload = parse_udp_frame(packet)
            response = decode_response(payload)
        except ValueError:
            return   # not a memcached response; ignore
        request_id = packet.request_id
        if request_id is None or request_id not in self.outstanding:
            # Fall back to the in-band ID (truncated to 16 bits on wire).
            request_id = self._match_truncated(response.request_id)
            if request_id is None:
                return
        sent_tick, kind = self.outstanding.pop(request_id)
        if kind.startswith("warm-"):
            return   # warm-up traffic is not measured
        self.responses_received += 1
        self.latency.record(sent_tick, self.now)
        if isinstance(response, GetResponse):
            if response.hit:
                self.get_hits += 1
            else:
                self.get_misses += 1
        elif isinstance(response, SetResponse):
            self.sets_acked += 1

    def _match_truncated(self, wire_id: int) -> Optional[int]:
        for full_id in self.outstanding:
            if full_id & 0xFFFF == wire_id:
                return full_id
        return None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets that were lost."""
        if self.requests_sent == 0:
            return 0.0
        return max(0.0, 1.0 - self.responses_received / self.requests_sent)

    def achieved_rps(self) -> float:
        """Measured request rate over the send interval."""
        if (self.first_tx_tick is None or self.last_tx_tick is None
                or self.requests_sent < 2):
            return 0.0
        elapsed = self.last_tx_tick - self.first_tx_tick
        if elapsed <= 0:
            return 0.0
        return self.requests_sent * TICKS_PER_SEC / elapsed

    # ------------------------------------------------------------------
    # Measurement and checkpoint support
    # ------------------------------------------------------------------

    measured_fields = ("latency", "requests_sent", "responses_received",
                       "get_hits", "get_misses", "sets_acked")

    def reset_measurement(self) -> None:
        """Also forget the window's first/last send."""
        super().reset_measurement()
        self.first_tx_tick = None
        self.last_tx_tick = None

    # Workload-RNG position, outstanding-request map, and counters.  The
    # key/value tables themselves are NOT serialized: they are a pure
    # function of the workload RNG's initial state, so a restored client
    # rebuilds them in ``__init__`` and only the RNG is repositioned.  The
    # client must be stopped (the inter-arrival sampler is rebuilt by the
    # next ``start``/``run_warmup`` call; the rig refuses while it is
    # ``active``).
    state_fields = ("_workload_rng", "_next_request_id", "_warm_remaining",
                    "first_tx_tick", "last_tx_tick",
                    "port") + measured_fields

    def serialize_state(self) -> dict:
        state = super().serialize_state()
        state["outstanding"] = [[request_id, sent_tick, kind]
                                for request_id, (sent_tick, kind)
                                in sorted(self.outstanding.items())]
        return state

    def deserialize_state(self, state: dict) -> None:
        super().deserialize_state(state)
        self.outstanding = {request_id: (sent_tick, kind)
                            for request_id, sent_tick, kind
                            in state["outstanding"]}

    # ------------------------------------------------------------------
    # Trace export (the dpdk-pdump integration)
    # ------------------------------------------------------------------

    def write_trace(self, path: Union[str, Path],
                    n_requests: Optional[int] = None,
                    rate_rps: Optional[float] = None) -> int:
        """Write the request stream as a PCAP trace for trace-mode replay.

        Timestamps are spaced at ``rate_rps`` (default: the configured
        rate).  Returns the number of records written.
        """
        count = n_requests if n_requests is not None else self.config.n_requests
        rate = rate_rps if rate_rps is not None else self.config.rate_rps
        gap_ns = int(1e9 / rate)
        written = 0
        with PcapWriter(path) as writer:
            ts_ns = 0
            for _ in range(count):
                request = self._next_request()
                self._next_request_id += 1
                packet = self._frame_for(request)
                writer.write(ts_ns, packet.to_bytes())
                ts_ns += gap_ns
                written += 1
        return written
