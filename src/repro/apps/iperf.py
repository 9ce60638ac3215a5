"""iperf — the representative kernel-networking throughput test.

"We use iperf as a representative application for comparing DPDK
applications to an application that uses Linux kernel networking"
(paper §VII.C); default gem5 "only delivers ~10Gbps network bandwidth
running the iPerf TCP throughput test" (§I).

The server receives a bulk byte stream through the kernel stack: every
segment pays protocol processing + the kernel->user copy, and a small ACK
frame is returned per segment.  Per-segment ACKs both exercise the TX DMA
path and let the load generator attribute every delivered segment (the
ACK echoes the segment's metadata), so drop accounting works the same way
as for the forwarding applications.
"""

from __future__ import annotations

from repro.apps.base import KernelNetApp
from repro.cpu.core import Work
from repro.nic.descriptors import RxDescriptor

ACK_EVERY = 1
ACK_FRAME_BYTES = 64


class IperfServer(KernelNetApp):
    """Kernel-stack bulk receiver with per-segment ACKs."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bytes_received = 0
        self.segments = 0
        self.acks_sent = 0

    def handle_packet(self, desc: RxDescriptor, batch_size: int) -> float:
        """Application-level processing; returns extra ns."""
        packet = desc.packet
        self.segments += 1
        self.bytes_received += packet.wire_len
        app_ns = self.core.execute(Work(
            compute_cycles=self.costs.iperf_per_segment_cycles))
        if self.segments % ACK_EVERY == 0:
            # TCP ACKs are generated inside the kernel: no syscall and no
            # user-space copy, just an skb and half a protocol trip.
            ack = packet.response_to(wire_len=ACK_FRAME_BYTES)
            skb_addr = self.stack.alloc_skb(ACK_FRAME_BYTES)
            app_ns += self.core.execute(Work(
                compute_cycles=self.costs.tcp_ack_cycles,
                writes=[skb_addr]))
            if self.driver.transmit(skb_addr, ack):
                self.acks_sent += 1
                self.total_responses += 1
        return app_ns

    def throughput_gbps(self, elapsed_ticks: int) -> float:
        """Delivered bandwidth over ``elapsed_ticks``."""
        if elapsed_ticks <= 0:
            return 0.0
        return self.bytes_received * 8 * 1e12 / elapsed_ticks / 1e9

    measured_fields = KernelNetApp.measured_fields + (
        "bytes_received", "segments", "acks_sent")
    state_fields = KernelNetApp.state_fields + (
        "bytes_received", "segments", "acks_sent")
