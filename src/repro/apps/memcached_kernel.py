"""MemcachedKernel — the kernel-stack key-value store.

"An in-memory key-value store implemented using the memcached library and
Linux POSIX APIs ... MemcachedKernel is not a DPDK application, we provide
it for performance comparison of DPDK and kernel network stacks."
(paper §V)

Every request pays the full kernel RX path (interrupt/softirq/copy via
:class:`KernelStackModel`), the application-level parse + hash work, and
the kernel TX path for the response.
"""

from __future__ import annotations

from repro.apps.base import KernelNetApp
from repro.cpu.core import Work
from repro.kvstore.protocol import (
    GetRequest,
    GetResponse,
    SetResponse,
    decode_request,
    encode_response,
)
from repro.kvstore.store import KvStore
from repro.net.headers import build_udp_frame, parse_udp_frame
from repro.nic.descriptors import RxDescriptor


class MemcachedKernel(KernelNetApp):
    """KV store server over UDP sockets."""

    def __init__(self, *args, store: KvStore, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.store = store
        self.requests_served = 0
        self.parse_errors = 0

    def handle_packet(self, desc: RxDescriptor, batch_size: int) -> float:
        """Application-level processing; returns extra ns."""
        packet = desc.packet
        try:
            _ip, _udp, payload = parse_udp_frame(packet)
            request = decode_request(payload)
        except (ValueError, TypeError):
            self.parse_errors += 1
            return 0.0
        if isinstance(request, GetRequest):
            value, footprint = self.store.get(request.key)
            response = GetResponse(request_id=request.request_id,
                                   hit=value is not None,
                                   value=value or b"")
        else:
            footprint = self.store.set(request.key, request.value)
            response = SetResponse(request_id=request.request_id)
        self.requests_served += 1
        encoded = encode_response(response)

        # Application-level request processing: the memcached library's
        # libevent dispatch + connection state machine on top of the
        # request logic itself.
        app_ns = self.core.execute(Work(
            compute_cycles=(self.costs.memcached_request_cycles
                            + self.costs.memcached_event_loop_cycles),
            reads=footprint.value_lines,
            dependent_reads=footprint.dependent_reads,
        ))

        # Response: sendmsg through the kernel TX path, then NIC DMA.
        tx = self.stack.tx_work(len(encoded), batch_size=batch_size)
        app_ns += self.core.execute(tx.app)
        app_ns += self.core.execute(tx.kernel)
        response_packet = build_udp_frame(
            src_mac=packet.dst, dst_mac=packet.src,
            src_ip=0x0A000002, dst_ip=0x0A000001,
            src_port=11211, dst_port=40000,
            payload=encoded)
        response_packet.request_id = packet.request_id
        response_packet.ts_tx = packet.ts_tx
        response_packet.meta.update(packet.meta)
        skb_addr = self.stack.alloc_skb(response_packet.wire_len)
        if self.driver.transmit(skb_addr, response_packet):
            self.total_responses += 1
        return app_ns

    measured_fields = KernelNetApp.measured_fields + ("requests_served",)
    # The store rides along with the app (see MemcachedDpdk).
    state_fields = KernelNetApp.state_fields + (
        "requests_served", "parse_errors", "store")
