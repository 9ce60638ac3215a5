"""The interrupt-driven (kernel) NIC driver.

The counterpart of the poll-mode driver: enables the NIC's receive
interrupt, supplies sk_buff addresses for incoming DMA, and hands
completed descriptors to a NAPI-style processing loop owned by the
application model.  It also programs the descriptor writeback threshold —
in kernel mode the threshold registers *are* set (paper §III.A.3), so the
baseline gem5 NIC behaves correctly here.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.kernelstack.stack import KernelStackModel
from repro.net.packet import Packet
from repro.nic.descriptors import RxDescriptor
from repro.nic.i8254x import I8254xNic, ICR_RXT0, REG_IMC, REG_IMS
from repro.sim.checkpoint import Stateful
from repro.sim.ports import (
    KIND_APP,
    KIND_DRIVER,
    KIND_STACK,
    RequestPort,
    ResponsePort,
)


class InterruptNicDriver(Stateful):
    """Binds the kernel stack to the NIC model."""

    def __init__(self, nic: I8254xNic, stack: KernelStackModel) -> None:
        self.nic = nic
        self.stack = stack
        self.name = f"{nic.name}.e1000"
        self.interrupts_taken = 0
        self._rx_handler: Optional[Callable[[int], None]] = None
        self.device_port = RequestPort(self, "device_port", KIND_DRIVER)
        self.device_port.bind(nic.driver_side)
        self.stack_port = RequestPort(self, "stack_port", KIND_STACK)
        self.stack_port.bind(stack.driver_side)
        self.app_side = ResponsePort(
            self, "app_side", KIND_APP,
            hint="install a kernel-stack application on this driver "
                 "(node.install_app)")
        nic.rx_buffer_source = self._rx_buffer_for
        nic.rx_notify = self._on_rx_writeback
        nic.bind_driver("e1000")
        nic.write_reg(REG_IMS, ICR_RXT0)   # enable RX interrupts

    def set_rx_handler(self, handler: Callable[[int], None]) -> None:
        """``handler(count)`` runs in interrupt context when descriptors
        are written back (the NAPI schedule point)."""
        self._rx_handler = handler

    def _rx_buffer_for(self, packet: Packet) -> int:
        return self.stack.alloc_skb(packet.wire_len)

    def _on_rx_writeback(self, count: int) -> None:
        self.interrupts_taken += 1
        if self._rx_handler is not None:
            self._rx_handler(count)

    # -- NAPI-style harvesting -------------------------------------------------

    def harvest(self, budget: int) -> List[RxDescriptor]:
        """Collect up to ``budget`` completed descriptors and replenish."""
        descs = self.nic.rx_ring.harvest(budget)
        if descs:
            self.nic.rx_replenish(len(descs))
        return descs

    def transmit(self, skb_addr: int, packet: Packet) -> bool:
        """Queue a packet for TX DMA."""
        return self.nic.tx_enqueue(skb_addr, packet)

    def irq_disable(self) -> None:
        """Mask RX interrupts while NAPI polls (interrupt mitigation)."""
        self.nic.write_reg(REG_IMC, ICR_RXT0)

    def irq_enable(self) -> None:
        """Unmask RX interrupts (NAPI poll round finished)."""
        self.nic.write_reg(REG_IMS, ICR_RXT0)

    # -- checkpoint support ------------------------------------------------

    state_fields = ("interrupts_taken",)
