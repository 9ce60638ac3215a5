"""The i8254x-style NIC device model.

gem5's NIC "loosely models the Intel 8254x NIC series" (§II.B); this is the
equivalent model with the paper's extensions applied:

- configurable descriptor-cache writeback threshold (§III.A.3),
- implemented Interrupt Mask Register read/write (§III.A.5, IMS/IMC),
- PCI quirks handled by the :mod:`repro.pci` layer (§III.A.1-2).

:class:`NicQuirks` can re-introduce each baseline limitation so tests can
demonstrate the before/after behaviour: an unimplemented IMR prevents a
poll-mode driver from launching, and the broken PMD writeback threshold
degenerates to full-descriptor-cache batching.

The RX data path follows the paper's Fig 3 life cycle; drop causes are
classified by the Fig 4 FSM at every packet reception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.mem.address import AddressSpace
from repro.nic.descriptors import RxRing, TxRing
from repro.nic.dma import DmaConfig, DmaEngine
from repro.nic.drop_fsm import DropClassifier
from repro.nic.fifo import PacketByteFifo
from repro.nic.phy import EtherPort
from repro.net.packet import Packet
from repro.pci.config_space import PciQuirks
from repro.pci.device import PciDevice
from repro.sim.checkpoint import Stateful
from repro.sim.event_queue import EventPool
from repro.sim.ports import KIND_DMA, KIND_DRIVER, RequestPort, ResponsePort
from repro.sim.simobject import SimObject, Simulation
from repro.sim.ticks import us_to_ticks

INTEL_VENDOR_ID = 0x8086
E1000_DEVICE_ID = 0x100E

# Register offsets (subset of the 8254x map).
REG_CTRL = 0x0000
REG_STATUS = 0x0008
REG_ICR = 0x00C0    # interrupt cause read (read-clears)
REG_ITR = 0x00C4    # interrupt throttling
REG_IMS = 0x00D0    # interrupt mask set/read
REG_IMC = 0x00D8    # interrupt mask clear
REG_RDT = 0x2818    # RX descriptor tail
REG_TDT = 0x3818    # TX descriptor tail

ICR_RXT0 = 1 << 7   # receiver timer / RX descriptor written back
ICR_TXDW = 1 << 0   # transmit descriptor written back


@dataclass(frozen=True)
class NicQuirks:
    """Baseline-gem5 NIC limitations, individually re-enablable."""

    imr_implemented: bool = True
    # When False, a PMD cannot program the writeback threshold and the NIC
    # only writes back once the whole descriptor cache is used.
    pmd_writeback_threshold_works: bool = True

    @classmethod
    def baseline_gem5(cls) -> "NicQuirks":
        """The mainline-gem5 behaviour, before the paper's fixes."""
        return cls(imr_implemented=False,
                   pmd_writeback_threshold_works=False)


@dataclass(frozen=True)
class NicConfig:
    """NIC geometry and timing."""

    rx_fifo_bytes: int = 48 * 1024
    tx_fifo_bytes: int = 48 * 1024
    # e1000-class default ring sizes (256 descriptors); Fig 13 overrides
    # the RX ring to 4096 explicitly.
    rx_ring_size: int = 256
    tx_ring_size: int = 256
    writeback_threshold: int = 8
    desc_cache_size: int = 64
    # Descriptor writeback timer (the 8254x RDTR mechanism): a partially
    # filled descriptor cache is flushed after this delay so low-rate
    # traffic is not held hostage to the batch threshold.
    writeback_timer_us: float = 2.0
    # Interrupt throttling (the 8254x ITR register): minimum spacing
    # between posted interrupts; causes raised inside the window coalesce
    # into one delivery at its end.  0 disables throttling.
    itr_us: float = 0.0
    dma: DmaConfig = field(default_factory=DmaConfig)
    quirks: NicQuirks = field(default_factory=NicQuirks)


class I8254xNic(Stateful, SimObject, PciDevice):
    """The NIC simulation object.

    The owning node wires up ``rx_buffer_source`` (returns the host buffer
    address for the next received packet — the driver's posted buffer) and
    optionally ``rx_notify`` (called on descriptor writeback, used by the
    interrupt-driven kernel driver; a PMD polls the ring instead).
    """

    def __init__(self, sim: Simulation, name: str, config: NicConfig,
                 dma_engine: DmaEngine, address_space: AddressSpace,
                 pci_quirks: PciQuirks = PciQuirks()) -> None:
        SimObject.__init__(self, sim, name)
        PciDevice.__init__(self, INTEL_VENDOR_ID, E1000_DEVICE_ID, pci_quirks)
        self.nic_config = config
        self.dma = dma_engine
        self.rx_fifo = PacketByteFifo(config.rx_fifo_bytes,
                                      name=f"{name}.rx_fifo")
        self.tx_fifo = PacketByteFifo(config.tx_fifo_bytes,
                                      name=f"{name}.tx_fifo")
        rx_region = address_space.allocate(
            f"{name}.rx_ring", config.rx_ring_size * 16)
        tx_region = address_space.allocate(
            f"{name}.tx_ring", config.tx_ring_size * 16)
        self.rx_ring = RxRing(config.rx_ring_size, rx_region,
                              writeback_threshold=config.writeback_threshold,
                              desc_cache_size=config.desc_cache_size)
        # Set by a PMD attaching to a NIC with the baseline-gem5 quirk:
        # "the threshold registers ... are not properly set, and thus the
        # NIC starts writing back the descriptors when all of them are
        # used" (§III.A.3).
        self._wb_timer_disabled = False
        self.tx_ring = TxRing(config.tx_ring_size, tx_region)
        # The four parts that state their own rules, under the rule name
        # invariant_failures() prefixes their messages with.
        self._rule_parts = (("rx-fifo", self.rx_fifo),
                            ("tx-fifo", self.tx_fifo),
                            ("rx-ring", self.rx_ring),
                            ("tx-ring", self.tx_ring))
        self.drop_fsm = DropClassifier()
        self.port = EtherPort(f"{name}.port", self._on_wire_rx, owner=self)
        # Typed wiring: the NIC is a requestor toward its DMA engine, and
        # serves exactly one driver (PMD or kernel) on driver_side.
        self.dma_port = RequestPort(self, "dma_port", KIND_DMA)
        self.dma_port.bind(dma_engine.device_side)
        self.driver_side = ResponsePort(
            self, "driver_side", KIND_DRIVER,
            hint="attach a driver to this NIC (E1000Pmd for DPDK, "
                 "InterruptNicDriver for the kernel stack)")

        # Driver hooks (set by the driver when it binds driver_side).
        self.rx_buffer_source: Optional[Callable[[Packet], int]] = None
        self.rx_notify: Optional[Callable[[int], None]] = None
        self.tx_complete_notify: Optional[Callable[[Packet], None]] = None

        # Interrupt state.
        self._ims = 0
        self._icr = 0

        # DMA service state: RX and TX directions are independent (the
        # underlying engine models a full-duplex I/O bus).
        self._rx_service_event = self.make_event(self._rx_service,
                                                 "rx_dma_service")
        self._tx_service_event = self.make_event(self._tx_service,
                                                 "tx_dma_service")
        self._wb_timer_event = self.make_event(self._wb_timer_fired,
                                               "wb_timer")
        # Interrupt throttling (ITR) state.
        self._itr_ticks = us_to_ticks(config.itr_us) if config.itr_us else 0
        self._itr_event = self.make_event(self._itr_window_closed, "itr")
        self._itr_pending = 0
        self._last_notify_tick = -(1 << 62)

        # Pooled one-shot completions for the per-packet DMA paths: each
        # firing is a bare queue entry under a precomputed name instead
        # of a fresh Event + closure + f-string per packet, with the
        # same firing order (and trace digests) as the pool's
        # fresh-event reference path (REPRO_EVENT_BATCH=0).
        self._rx_done_pool = EventPool(self._after_rx_dma,
                                       f"{name}.rx_dma_done")
        self._tx_done_pool = EventPool(self._after_tx_dma,
                                       f"{name}.tx_dma_done")
        self._rx_wb_pool = EventPool(self._notify_rx,
                                     f"{name}.rx_writeback")

        # Measurement-window count (see measured_fields); drops per
        # cause are the drop FSM's.
        self.rx_buffer_starved = 0  # RX DMA stalls for lack of buffers
        # Whether the RX DMA last stopped because the driver had no
        # buffer.  Not checkpointed: it matters only while a frame waits
        # in the RX FIFO, and a checkpoint is taken with the FIFO empty.
        self._rx_stalled = False

        # Lifetime accounting (never reset).  Frames and descriptors are
        # counted by the port, FIFO or ring they cross; the NIC adds only
        # what none of them sees: RX drops (the lifetime twin of the RX
        # FIFO's window ``rejected``) and frames in TX DMA flight.
        self.total_rx_drops = 0
        self._tx_dma_in_flight = 0

    def invariant_failures(self, final: bool = True):
        """Packet conservation along the Fig 3 RX lifecycle and the TX
        path, both FIFOs and both rings, and drop-cause accounting (Fig 4
        FSM vs. the RX FIFO's rejections); each message names its
        rule.  The DMA engine states its own byte conservation."""
        fails = []
        rx_fifo, tx_fifo = self.rx_fifo, self.tx_fifo
        wire_rx = self.port.frames_received
        if wire_rx != rx_fifo.enqueued + self.total_rx_drops:
            fails.append(
                f"rx-conservation: wire rx {wire_rx} != "
                f"fifo-accepted {rx_fifo.enqueued} + dropped "
                f"{self.total_rx_drops} (fifo holds {len(rx_fifo)})")
        if rx_fifo.dequeued != self.rx_ring.filled_total:
            fails.append(
                f"rx-conservation: fifo released {rx_fifo.dequeued} "
                f"packets but ring filled {self.rx_ring.filled_total}")
        consumed = self.tx_ring.consumed_total
        landed = tx_fifo.enqueued + tx_fifo.rejected
        if consumed != landed + self._tx_dma_in_flight:
            fails.append(
                f"tx-conservation: tx ring released {consumed} packets "
                f"but {tx_fifo.enqueued} reached the TX FIFO, "
                f"{tx_fifo.rejected} overflowed it and "
                f"{self._tx_dma_in_flight} are in DMA flight")
        if self.port.frames_sent != tx_fifo.dequeued:
            fails.append(
                f"tx-conservation: TX FIFO released {tx_fifo.dequeued} "
                f"frames but port sent {self.port.frames_sent}")
        for rule, part in self._rule_parts:
            for message in part.invariant_failures(final):
                fails.append(f"{rule}: {message}")
        fsm_total = self.drop_fsm.total_drops
        if rx_fifo.rejected != fsm_total:
            fails.append(
                f"drop-cause-accounting: RX FIFO rejected "
                f"{rx_fifo.rejected} != drop-FSM total {fsm_total}")
        return fails

    def held(self) -> int:
        """Packets inside the NIC: in either FIFO, in either ring, or in
        TX DMA flight."""
        return (self.rx_fifo.held() + self.tx_fifo.held()
                + self.rx_ring.held() + self.tx_ring.held()
                + self._tx_dma_in_flight)

    # ------------------------------------------------------------------
    # Register file (MMIO)
    # ------------------------------------------------------------------

    def read_reg(self, offset: int) -> int:
        """Read a device register (MMIO)."""
        if offset in (REG_IMS, REG_IMC):
            if not self.nic_config.quirks.imr_implemented:
                # Baseline gem5: the register exists but its read method is
                # not implemented — reads return 0 (§III.A.5).
                return 0
            return self._ims
        if offset == REG_ICR:
            value = self._icr
            self._icr = 0   # read-to-clear
            return value
        if offset == REG_STATUS:
            return 0x2      # link up
        return 0

    def write_reg(self, offset: int, value: int) -> None:
        """Write a device register (MMIO)."""
        if offset == REG_IMS:
            if self.nic_config.quirks.imr_implemented:
                self._ims |= value
            return
        if offset == REG_IMC:
            if self.nic_config.quirks.imr_implemented:
                self._ims &= ~value
            return
        if offset in (REG_RDT, REG_TDT, REG_CTRL, REG_ITR):
            return  # doorbells modelled through the ring objects directly
        raise ValueError(f"write to unmodelled register {offset:#x}")

    def device_interrupts_masked(self) -> bool:
        """Device-level interrupt mask state (IMS empty)."""
        return self._ims == 0

    def interrupt_mask_operational(self) -> bool:
        """Can a driver actually program the mask?  (The PMD launch check.)"""
        probe = ICR_RXT0 | ICR_TXDW
        before = self._ims
        self.write_reg(REG_IMS, probe)
        works = (self.read_reg(REG_IMS) & probe) == probe
        self.write_reg(REG_IMC, probe)
        if self.nic_config.quirks.imr_implemented:
            self._ims = before
        return works

    # ------------------------------------------------------------------
    # Wire RX (Fig 3 step 1 + Fig 4 FSM)
    # ------------------------------------------------------------------

    def _on_wire_rx(self, packet: Packet) -> None:
        accepted = self.rx_fifo.try_enqueue(packet)
        state = self.drop_fsm.on_packet_rx(
            rx_fifo_full=not accepted or self.rx_fifo.full_for_min_frame,
            rx_ring_full=self.rx_ring.full,
            tx_ring_full=self.tx_ring.full,
            dropped=not accepted,
        )
        if self.sim.tracer.enabled:
            cause = (self.drop_fsm.classify(state).value
                     if not accepted else None)
            self.trace("nic", "wire_rx", bytes=packet.wire_len,
                       accepted=accepted, cause=cause)
        if not accepted:
            self.total_rx_drops += 1
            return
        self._kick_rx()

    # ------------------------------------------------------------------
    # DMA service loop (Fig 3 steps 2-4).  Each direction is kicked only
    # by what can change its readiness: a wire arrival or the driver's
    # buffer return (RDT) for RX, a TX post or a TX DMA completion for
    # TX.  The one exception is an RX DMA stalled for lack of a host
    # buffer: TX completions free buffers, so a TX post retries it.
    # ------------------------------------------------------------------

    def _kick_rx(self) -> None:
        if self._rx_service_event.scheduled or not self._rx_work_ready():
            return
        when = max(self.now, self.dma.rx_busy_until)
        self.schedule(self._rx_service_event, when)

    def _kick_tx(self) -> None:
        if self._tx_service_event.scheduled or not self._tx_work_ready():
            return
        when = max(self.now, self.dma.tx_busy_until)
        self.schedule(self._tx_service_event, when)

    def _rx_work_ready(self) -> bool:
        return (len(self.rx_fifo) > 0
                and not self.rx_ring.full
                and self.rx_buffer_source is not None)

    def _tx_work_ready(self) -> bool:
        return self.tx_ring.held() > 0 and self.tx_fifo.free_bytes >= 1518

    def _rx_service(self) -> None:
        """DMA one received packet from the RX FIFO into host memory."""
        if not self._rx_work_ready():
            return
        now = self.now
        packet = self.rx_fifo.dequeue()
        buffer_addr = self.rx_buffer_source(packet)
        if buffer_addr is None:
            # Buffer starvation: the driver has no packet buffer to post.
            # The frame stays at the head of the FIFO; service resumes
            # on the next arrival, buffer return or TX post.
            self.rx_fifo.requeue_front(packet)
            self.rx_buffer_starved += 1
            self._rx_stalled = True
            return
        self._rx_stalled = False
        self.rx_ring.fill(buffer_addr, packet)
        finish = self.dma.write_packet(now, buffer_addr, packet.wire_len)
        if self.sim.tracer.enabled:
            self.trace("dma", "rx_write", bytes=packet.wire_len,
                       addr=buffer_addr, finish=finish)
        # Writeback decision is evaluated once the data DMA lands.
        self._rx_done_pool.schedule_at(self.sim.events, finish)
        self._kick_rx()

    def _after_rx_dma(self, _payload=None) -> None:
        if self.rx_ring.writeback_due:
            self._do_writeback(self.now)
        elif (self.rx_ring.pending_writeback_count
                and not self._wb_timer_disabled
                and not self._wb_timer_event.scheduled):
            self.schedule_after(
                self._wb_timer_event,
                us_to_ticks(self.nic_config.writeback_timer_us))
        self._kick_rx()

    def _wb_timer_fired(self) -> None:
        if self.rx_ring.pending_writeback_count:
            self._do_writeback(self.now)

    def _do_writeback(self, now: int) -> None:
        batch = self.rx_ring.writeback()
        if not batch:
            return
        desc_addrs = [self.rx_ring.desc_addr(desc.index) for desc in batch]
        finish = self.dma.writeback_descriptors(now, len(batch), desc_addrs)
        if self.sim.tracer.enabled:
            self.trace("nic", "writeback", count=len(batch), finish=finish)
        if self.rx_notify is not None:
            self._rx_wb_pool.schedule_at(self.sim.events, finish, len(batch))

    def _notify_rx(self, count: int) -> None:
        if self._itr_ticks:
            # ITR: coalesce causes raised inside the throttling window.
            if self.now - self._last_notify_tick < self._itr_ticks:
                self._itr_pending += count
                if not self._itr_event.scheduled:
                    self.schedule(
                        self._itr_event,
                        self._last_notify_tick + self._itr_ticks)
                return
        self._deliver_rx_notify(count)

    def _itr_window_closed(self) -> None:
        pending, self._itr_pending = self._itr_pending, 0
        if pending:
            self._deliver_rx_notify(pending)

    def _deliver_rx_notify(self, count: int) -> None:
        self._last_notify_tick = self.now
        self._icr |= ICR_RXT0
        if self._ims & ICR_RXT0:
            self.post_interrupt()
        if self.rx_notify is not None:
            self.rx_notify(count)

    def _tx_service(self) -> None:
        """DMA one transmit packet out of the TX ring toward the wire."""
        if not self._tx_work_ready():
            return
        now = self.now
        buffer_addr, packet = self.tx_ring.consume()
        self._tx_dma_in_flight += 1
        finish = self.dma.read_packet(now, buffer_addr, packet.wire_len)
        if self.sim.tracer.enabled:
            self.trace("dma", "tx_read", bytes=packet.wire_len,
                       addr=buffer_addr, finish=finish)
        self._tx_done_pool.schedule_at(self.sim.events, finish, packet)
        self._kick_tx()

    def _after_tx_dma(self, packet: Packet) -> None:
        self._tx_dma_in_flight -= 1
        if self.tx_fifo.try_enqueue(packet):
            # Drain immediately onto the wire; the link serializes.
            self.tx_fifo.dequeue()
            self.port.send(packet)
            if self.sim.tracer.enabled:
                self.trace("nic", "tx_wire", bytes=packet.wire_len)
            if self.tx_complete_notify is not None:
                self.tx_complete_notify(packet)
        # Otherwise the TX FIFO had no room for the DMA-read frame and
        # counted it rejected (cannot happen while _tx_work_ready gates on
        # free space, but the conservation layer accounts for it).
        self._kick_tx()

    # ------------------------------------------------------------------
    # Driver-side doorbells
    # ------------------------------------------------------------------

    def tx_enqueue(self, buffer_addr: int, packet: Packet) -> bool:
        """Driver posts one packet; kicks the DMA engine (TDT doorbell)."""
        ok = self.tx_ring.enqueue(buffer_addr, packet)
        if ok:
            if self._rx_stalled:
                self._kick_rx()
            self._kick_tx()
        return ok

    def rx_replenish(self, count: int = 1) -> None:
        """Driver returns buffers to the NIC (RDT doorbell)."""
        self.rx_ring.replenish(count)
        self._kick_rx()

    # ------------------------------------------------------------------
    # Measurement and checkpoint support
    # ------------------------------------------------------------------

    # The TX FIFO's ``rejected`` stays lifetime: the tx-conservation rule
    # and the node's end-to-end law read it.
    measured_fields = ("rx_buffer_starved", "interrupts_posted",
                       "interrupts_suppressed", "drop_fsm",
                       "rx_fifo.rejected")

    # Register file, interrupt/ITR state, window and lifetime counters,
    # and the nested FIFO/ring/FSM state.  Packets are not serialized:
    # the rig checkpoints the NIC only while held() reads 0.
    state_fields = ("_ims", "_icr", "_itr_pending", "_last_notify_tick",
                    "_wb_timer_disabled", "rx_buffer_starved",
                    "interrupts_posted", "interrupts_suppressed",
                    "total_rx_drops", "_tx_dma_in_flight",
                    "port.frames_sent", "port.frames_received", "rx_fifo",
                    "tx_fifo", "rx_ring", "tx_ring", "drop_fsm")
