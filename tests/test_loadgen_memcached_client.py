"""Unit tests for the memcached client personality."""

import pytest

from repro.kvstore.protocol import (
    GetResponse,
    SetResponse,
    decode_request,
    encode_response,
)
from repro.kvstore.store import KvStore
from repro.loadgen.memcached_client import (
    MemcachedClient,
    MemcachedClientConfig,
)
from repro.mem.address import AddressSpace
from repro.net.headers import build_udp_frame, parse_udp_frame
from repro.net.packet import MacAddress
from repro.net.pcap import PcapReader
from repro.nic.phy import EtherLink, EtherPort
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from tests.conftest import check_components

CLIENT_MAC = MacAddress.parse("02:00:00:00:00:01")
SERVER_MAC = MacAddress.parse("02:00:00:00:00:02")


class MiniServer:
    """A functional memcached endpoint for driving the client."""

    def __init__(self, sim):
        self.sim = sim
        self.store = KvStore(AddressSpace())
        self.port = EtherPort("server", self._on_rx)
        self.requests = 0

    def _on_rx(self, packet):
        _ip, _udp, payload = parse_udp_frame(packet)
        request = decode_request(payload)
        self.requests += 1
        from repro.kvstore.protocol import GetRequest
        if isinstance(request, GetRequest):
            value, _fp = self.store.get(request.key)
            response = GetResponse(request_id=request.request_id,
                                   hit=value is not None,
                                   value=value or b"")
        else:
            self.store.set(request.key, request.value)
            response = SetResponse(request_id=request.request_id)
        out = build_udp_frame(SERVER_MAC, CLIENT_MAC, 0x0A000002,
                              0x0A000001, 11211, 40000,
                              encode_response(response))
        out.request_id = packet.request_id
        self.port.send(out)


def build(config=None):
    sim = Simulation(seed=2)
    client = MemcachedClient(sim, "client",
                             config or MemcachedClientConfig(
                                 n_warm_keys=50, n_requests=100,
                                 rate_rps=1e6),
                             dst_mac=SERVER_MAC, src_mac=CLIENT_MAC)
    server = MiniServer(sim)
    link = EtherLink(sim, "link")
    link.connect(client.port, server.port)
    check_components(sim, link)
    return sim, client, server


def test_preload_populates_store():
    _sim, client, server = build()
    loaded = client.preload(server.store)
    assert loaded == 50
    assert server.store.size == 50


def test_requests_all_answered():
    sim, client, server = build()
    client.preload(server.store)
    client.start()
    sim.run(until=us_to_ticks(10_000))
    assert client.requests_sent == 100
    assert client.responses_received == 100
    assert client.drop_rate == 0.0


def test_get_set_mix_near_configured_fraction():
    sim, client, server = build(MemcachedClientConfig(
        n_warm_keys=50, n_requests=400, get_fraction=0.8, rate_rps=1e6))
    client.preload(server.store)
    client.start()
    sim.run(until=us_to_ticks(10_000))
    gets = client.get_hits + client.get_misses
    assert gets == pytest.approx(320, abs=50)
    assert client.sets_acked == client.responses_received - gets


def test_warm_keys_always_hit():
    sim, client, server = build()
    client.preload(server.store)
    client.start()
    sim.run(until=us_to_ticks(10_000))
    assert client.get_misses == 0


def test_cold_store_misses():
    sim, client, server = build()
    client.start()   # no preload
    sim.run(until=us_to_ticks(10_000))
    # Every GET that precedes a SET of that key misses.
    assert client.get_misses > 0


def test_latency_tracked_per_request():
    sim, client, server = build()
    client.preload(server.store)
    client.start()
    sim.run(until=us_to_ticks(10_000))
    assert client.latency.summary()["count"] == 100


def test_outstanding_map_drains():
    sim, client, server = build()
    client.preload(server.store)
    client.start()
    sim.run(until=us_to_ticks(10_000))
    assert client.outstanding == {}


def test_achieved_rps():
    sim, client, server = build()
    client.preload(server.store)
    client.start()
    sim.run(until=us_to_ticks(10_000))
    assert client.achieved_rps() == pytest.approx(1e6, rel=0.05)


def test_key_value_sizes_in_zipf_range():
    _sim, client, _server = build(MemcachedClientConfig(
        n_warm_keys=200, n_requests=10, size_min=10, size_max=100,
        rate_rps=1e5))
    assert all(10 <= len(k) <= 100 for k in client._keys)
    assert all(10 <= len(v) <= 100 for v in client._values.values())


def test_write_trace_produces_valid_pcap(tmp_path):
    _sim, client, _server = build()
    path = tmp_path / "requests.pcap"
    written = client.write_trace(path, n_requests=25, rate_rps=1e6)
    assert written == 25
    records = PcapReader(path).read_all()
    assert len(records) == 25
    # Each record is a parsable memcached request frame.
    from repro.net.packet import Packet
    packet = Packet.from_bytes(records[0].data)
    _ip, udp, payload = parse_udp_frame(packet)
    assert udp.dst_port == 11211
    decode_request(payload)   # must not raise
    # Paced at 1 us.
    assert records[1].ts_ns - records[0].ts_ns == 1000


def test_config_validation():
    with pytest.raises(ValueError):
        MemcachedClientConfig(get_fraction=1.5)
    with pytest.raises(ValueError):
        MemcachedClientConfig(n_requests=0)
    with pytest.raises(ValueError):
        MemcachedClientConfig(rate_rps=0)


def test_cannot_start_twice():
    sim, client, _server = build()
    client.start()
    with pytest.raises(RuntimeError):
        client.start()
