"""Per-packet kernel-stack work construction.

Translates the kernel path into :class:`~repro.cpu.core.Work` objects
against real address regions, so the kernel stack's larger working set
("larger than 1MiB", §VII.C) emerges from its buffer and code footprints:

- *sk_buff pool*: packet data lands in a large circulating buffer area
  (driver rings cycle through far more memory than a DPDK mempool);
- *kernel text*: protocol processing touches a sizeable instruction
  footprint every packet;
- *copies*: RX data is copied kernel->user (and TX user->kernel), reading
  and writing every payload line — DPDK's zero-copy advantage is the
  absence of exactly these accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cpu.core import Work
from repro.cpu.kernels import KernelCosts, LINE_SIZE, lines_covering
from repro.mem.address import AddressSpace, Region
from repro.sim.checkpoint import Stateful
from repro.sim.ports import KIND_STACK, ResponsePort


@dataclass
class StackWork:
    """Work split into kernel-context and app-context portions."""

    kernel: Work
    app: Work


class KernelStackModel(Stateful):
    """Builds kernel-path work for RX and TX packets."""

    # Footprints chosen so the kernel working set exceeds 1MiB (paper
    # §VII.C: iperf improves up to a 4MiB L2).
    SKB_POOL_BYTES = 2 * 1024 * 1024
    KERNEL_TEXT_BYTES = 768 * 1024
    TEXT_LINES_PER_PACKET = 22       # icache footprint touched per packet
    USER_BUFFER_BYTES = 512 * 1024

    def __init__(self, address_space: AddressSpace,
                 costs: KernelCosts = KernelCosts(),
                 name: str = "kernel.stack") -> None:
        self.costs = costs
        self.name = name
        # The interrupt driver binds here; the stack serves it work costs.
        self.driver_side = ResponsePort(self, "driver_side", KIND_STACK)
        self.skb_pool: Region = address_space.allocate(
            "kernel.skb_pool", self.SKB_POOL_BYTES)
        self.kernel_text: Region = address_space.allocate(
            "kernel.text", self.KERNEL_TEXT_BYTES)
        self.user_buffer: Region = address_space.allocate(
            "kernel.user_buf", self.USER_BUFFER_BYTES)
        self._skb_cursor = 0
        self._text_cursor = 0
        self._user_cursor = 0
        self.skb_allocs = 0

    # -- buffer management ----------------------------------------------------

    def alloc_skb(self, nbytes: int) -> int:
        """Next sk_buff data address; the pool circulates, giving the
        kernel stack its large data working set."""
        skb_bytes = max(256, nbytes)
        addr = self.skb_pool.wrap_addr(self._skb_cursor)
        self._skb_cursor += skb_bytes
        self.skb_allocs += 1
        return addr

    def _text_lines(self, count: int) -> List[int]:
        """Instruction lines touched by one trip through the stack.

        The protocol path walks a long call chain through the kernel text
        region, cycling it with a periodic pattern: the full region's
        footprint competes with packet data for L2 capacity, which is why
        iperf keeps improving until the L2 holds the whole kernel working
        set (paper Fig 11c).
        """
        lines = []
        for _ in range(count):
            lines.append(self.kernel_text.wrap_addr(self._text_cursor))
            self._text_cursor = (self._text_cursor + LINE_SIZE) \
                % self.KERNEL_TEXT_BYTES
        return lines

    def _user_addr(self, nbytes: int) -> int:
        addr = self.user_buffer.wrap_addr(self._user_cursor)
        self._user_cursor += nbytes
        return addr

    # -- checkpoint support ------------------------------------------------

    state_fields = ("_skb_cursor", "_text_cursor", "_user_cursor",
                    "skb_allocs")

    # -- work builders ----------------------------------------------------------

    def rx_work(self, skb_addr: int, payload_bytes: int,
                batch_size: int = 1, deliver_to_user: bool = True) -> StackWork:
        """Kernel + app work for receiving one packet.

        ``batch_size`` is how many packets share one interrupt + wakeup
        (NAPI coalescing); the per-batch costs are amortized accordingly.
        """
        costs = self.costs
        batch = max(1, batch_size)
        amortized = (costs.interrupt_cycles
                     + costs.context_switch_cycles) // batch
        kernel_cycles = (amortized
                         + costs.softirq_per_packet_cycles
                         + costs.skb_alloc_cycles
                         + costs.socket_dequeue_cycles)
        payload_lines = lines_covering(skb_addr, payload_bytes)
        kernel = Work(
            compute_cycles=kernel_cycles,
            ifetch=self._text_lines(self.TEXT_LINES_PER_PACKET),
            reads=payload_lines,           # checksum / protocol inspection
            writes=[skb_addr],             # skb metadata update
        )
        app_reads: List[int] = []
        app_writes: List[int] = []
        app_cycles = 0
        if deliver_to_user:
            # recvmsg: one syscall pair (amortized over the batch for a
            # busy server looping on the socket) + copy_to_user.
            app_cycles = (costs.syscall_cycles // batch
                          + costs.copy_cycles_per_line * len(payload_lines))
            user_addr = self._user_addr(payload_bytes)
            app_reads = payload_lines
            app_writes = lines_covering(user_addr, payload_bytes)
        app = Work(compute_cycles=app_cycles, reads=app_reads,
                   writes=app_writes)
        return StackWork(kernel=kernel, app=app)

    def tx_work(self, payload_bytes: int, batch_size: int = 1) -> StackWork:
        """App + kernel work for sending one packet (sendmsg path)."""
        costs = self.costs
        batch = max(1, batch_size)
        skb_addr = self.alloc_skb(payload_bytes)
        payload_lines = lines_covering(skb_addr, payload_bytes)
        user_addr = self._user_addr(payload_bytes)
        user_lines = lines_covering(user_addr, payload_bytes)
        app = Work(
            compute_cycles=(costs.syscall_cycles // batch
                            + costs.copy_cycles_per_line * len(user_lines)),
            reads=user_lines,
            writes=payload_lines,          # copy_from_user into the skb
        )
        kernel = Work(
            compute_cycles=(costs.softirq_per_packet_cycles // 2
                            + costs.skb_alloc_cycles),
            ifetch=self._text_lines(self.TEXT_LINES_PER_PACKET // 2),
            reads=[skb_addr],
            writes=[skb_addr],
        )
        return StackWork(kernel=kernel, app=app)
