"""MemcachedDPDK — in-memory key-value store over DPDK.

"A simple in-memory key-value store implemented on top of DPDK and thus
achieves higher throughput and lower latency per request." (paper §V)

The server parses real memcached-over-UDP request frames, performs the
hash-table operation against the simulated store (whose bucket/entry walk
is a dependent load chain), and responds in place over the same mbuf.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.base import DpdkApp
from repro.cpu.core import Work
from repro.cpu.kernels import lines_covering
from repro.dpdk.pmd import RxMbuf
from repro.kvstore.protocol import (
    GetRequest,
    GetResponse,
    SetRequest,
    SetResponse,
    decode_request,
    encode_response,
)
from repro.kvstore.store import KvStore
from repro.net.headers import build_udp_frame, parse_udp_frame
from repro.net.packet import Packet


class MemcachedDpdk(DpdkApp):
    """KV store server on the poll-mode driver."""

    def __init__(self, *args, store: KvStore, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.store = store
        self.requests_served = 0
        self.parse_errors = 0
        self._pending_response: Optional[bytes] = None
        self._pending_footprint = None

    def frame_work(self, frame: RxMbuf) -> Optional[Work]:
        """Per-packet application work for one received frame."""
        self._pending_response = None
        self._pending_footprint = None
        try:
            _ip, _udp, payload = parse_udp_frame(frame.packet)
            request = decode_request(payload)
        except (ValueError, TypeError):
            self.parse_errors += 1
            return None
        if isinstance(request, GetRequest):
            value, footprint = self.store.get(request.key)
            response = GetResponse(request_id=request.request_id,
                                   hit=value is not None,
                                   value=value or b"")
        elif isinstance(request, SetRequest):
            footprint = self.store.set(request.key, request.value)
            response = SetResponse(request_id=request.request_id)
        else:   # pragma: no cover - decode_request only returns the above
            return None
        self._pending_response = encode_response(response)
        self._pending_footprint = footprint
        self.requests_served += 1
        request_lines = lines_covering(frame.mbuf.data_addr,
                                       frame.packet.payload_len)
        return Work(
            compute_cycles=self.costs.memcached_request_cycles,
            reads=request_lines + footprint.value_lines,
            writes=lines_covering(frame.mbuf.data_addr,
                                  len(self._pending_response)),
            dependent_reads=footprint.dependent_reads,
        )

    def transform(self, frame: RxMbuf) -> Optional[Packet]:
        """Outgoing packet for this frame (None drops it)."""
        if self._pending_response is None:
            return None   # unparsable frame: drop
        request_packet = frame.packet
        response = build_udp_frame(
            src_mac=request_packet.dst, dst_mac=request_packet.src,
            src_ip=0x0A000002, dst_ip=0x0A000001,
            src_port=11211, dst_port=40000,
            payload=self._pending_response)
        response.request_id = request_packet.request_id
        response.ts_tx = request_packet.ts_tx
        # Carry the simulation-side tracking metadata (epoch, ramp step)
        # so the load generator can attribute the response.
        response.meta.update(request_packet.meta)
        return response

    measured_fields = DpdkApp.measured_fields + ("requests_served",)
    # The store rides along with the app: it is not a topology component
    # of its own, and its contents (warm keys) are the whole point of a
    # warm-up checkpoint.
    state_fields = DpdkApp.state_fields + (
        "requests_served", "parse_errors", "store")
