"""Application base classes.

:class:`DpdkApp` is the run-to-completion loop of §II.A: "(1) retrieve RX
packets through Polling Mode Driver (PMD) RX API, (2) process packets on
the same logical core, (3) send pending packets through the PMD TX API."
The loop runs on one simulated core; per-packet work is charged against
the memory hierarchy through the core model.

:class:`KernelNetApp` is the interrupt-driven counterpart: a NAPI-style
harvest loop with softirq protocol processing and socket delivery, using
the :mod:`repro.kernelstack` cost model.

A note on poll scheduling: a real PMD spins continuously.  Simulating
every empty poll iteration would flood the event queue, so when the RX
ring is empty the app parks and is re-armed by the NIC's descriptor
writeback — with a small reaction delay standing in for the partial poll
iteration in flight.  This changes nothing observable: a spinning core is
busy-idle either way, and the reaction delay preserves poll-loop latency.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.core import CoreModel, Work
from repro.cpu.kernels import KernelCosts
from repro.dpdk.pmd import E1000Pmd, RxMbuf
from repro.kernelstack.driver import InterruptNicDriver
from repro.kernelstack.stack import KernelStackModel
from repro.mem.address import AddressSpace
from repro.net.packet import Packet
from repro.sim.checkpoint import Stateful
from repro.sim.event_queue import EventPool
from repro.sim.ports import KIND_APP, RequestPort
from repro.sim.simobject import SimObject, Simulation
from repro.sim.ticks import ns_to_ticks

POLL_REACTION_NS = 25.0   # partial poll iteration when traffic resumes


class DpdkApp(Stateful, SimObject):
    """Run-to-completion DPDK application on one core."""

    #: rx_burst size; testpmd's default burst is 32 packets.
    burst_size = 32
    #: Distinct instruction lines in the hot loop (small: DPDK apps are
    #: L1I-resident, which is why they show no L1 sensitivity in Fig 10).
    code_lines = 6

    def __init__(self, sim: Simulation, name: str, pmd: E1000Pmd,
                 core: CoreModel, costs: KernelCosts,
                 address_space: AddressSpace) -> None:
        super().__init__(sim, name)
        self.pmd = pmd
        self.core = core
        self.costs = costs
        region = address_space.allocate(f"{name}.text", 16 * 1024)
        self._code = [region.addr(i * 64) for i in range(self.code_lines)]
        self._poll_event = self.make_event(self._poll, "poll")
        # Pooled burst completion: at most one in flight (the loop is
        # run-to-completion), and each burst skips an Event + closure +
        # f-string allocation.
        self._finish_pool = EventPool(self._finish_burst,
                                      f"{name}.finish_burst")
        self._idle = True
        self._running = False
        self.packets_processed = 0
        self.packets_forwarded = 0
        self.packets_dropped_by_app = 0
        self.tx_ring_drops = 0
        self.bursts = 0
        # Lifetime accounting (never reset) for the conservation layer:
        # every packet the RX ring released (its harvested_total) is
        # forwarded, absorbed (app drop or TX ring overflow) or still held
        # between poll and burst completion.
        self.total_forwarded = 0
        self.total_absorbed = 0
        self._holding = 0
        # The NIC's writeback hint re-arms the parked poll loop.
        pmd.nic.rx_notify = self._rx_hint
        self.driver_port = RequestPort(self, "driver_port", KIND_APP)
        self.driver_port.bind(pmd.app_side)

    def invariant_failures(self, final: bool = True):
        """Packet conservation: every packet the RX ring released is
        forwarded, absorbed or held."""
        fails = []
        harvested = self.pmd.nic.rx_ring.harvested_total
        accounted = (self.total_forwarded + self.total_absorbed
                     + self._holding)
        if harvested != accounted:
            fails.append(
                f"packet-conservation: harvested {harvested} "
                f"!= forwarded {self.total_forwarded} + absorbed "
                f"{self.total_absorbed} + holding {self._holding}")
        if self._holding < 0:
            fails.append(f"packet-conservation: negative holding count "
                         f"{self._holding}")
        return fails

    def held(self) -> int:
        """Packets between harvest and burst completion."""
        return self._holding

    # -- lifecycle ---------------------------------------------------------

    def start(self, when: int = 0) -> None:
        """Begin operation at tick ``when`` (default: now)."""
        self._running = True
        self._idle = False
        self.schedule(self._poll_event, max(when, self.now))

    def stop(self) -> None:
        """Stop operation; pending events are cancelled."""
        self._running = False
        if self._poll_event.scheduled:
            self.deschedule(self._poll_event)

    def _rx_hint(self, count: int) -> None:
        if self._running and self._idle and not self._poll_event.scheduled:
            self._idle = False
            self.schedule_after(self._poll_event, ns_to_ticks(POLL_REACTION_NS))

    # -- the run-to-completion loop ----------------------------------------

    def _poll(self) -> None:
        if not self._running:
            return
        frames = self.pmd.rx_burst(self.burst_size)
        if not frames:
            self._idle = True   # park; _rx_hint re-arms
            return
        self.bursts += 1
        total_ns = self.core.execute(Work(
            compute_cycles=(self.costs.pmd_rx_burst_cycles
                            + self.costs.pmd_tx_burst_cycles),
            ifetch=self._code,
        ))
        outgoing: List[RxMbuf] = []
        for frame in frames:
            total_ns += self.core.execute(self._pmd_work(frame))
            app_work = self.frame_work(frame)
            if app_work is not None:
                total_ns += self.core.execute(app_work)
            response = self.transform(frame)
            if response is None:
                self.packets_dropped_by_app += 1
                self.total_absorbed += 1
                self.pmd.free(frame)
            else:
                if response is not frame.packet:
                    response.meta["mbuf"] = frame.mbuf
                    frame.packet = response
                outgoing.append(frame)
        self.packets_processed += len(frames)
        self._holding += len(outgoing)
        if self.sim.tracer.enabled:
            self.trace("app", "burst", harvested=len(frames),
                       outgoing=len(outgoing), ns=round(total_ns, 3))
        self._finish_pool.schedule_at(
            self.sim.events, self.now + ns_to_ticks(total_ns), outgoing)

    def _pmd_work(self, frame: RxMbuf) -> Work:
        """Driver-side footprint: descriptor read, mbuf metadata write
        (rte_mbuf is 128B: two lines), packet header read."""
        return Work(
            compute_cycles=(self.costs.pmd_per_packet_cycles
                            + self.costs.mempool_get_put_cycles),
            ifetch=self._code[:2],
            reads=[frame.desc_addr, frame.mbuf.data_addr],
            writes=[frame.mbuf.buffer_addr, frame.mbuf.buffer_addr + 64],
        )

    def _finish_burst(self, outgoing: List[RxMbuf]) -> None:
        self._holding -= len(outgoing)
        if outgoing:
            sent = self.pmd.tx_burst(outgoing)
            self.packets_forwarded += sent
            self.total_forwarded += sent
            for frame in outgoing[sent:]:
                self.tx_ring_drops += 1
                self.total_absorbed += 1
                self.pmd.free(frame)
        if self._running:
            self._poll()

    # -- subclass hooks -------------------------------------------------------

    def frame_work(self, frame: RxMbuf) -> Optional[Work]:
        """Application-specific per-packet work (None = nothing extra)."""
        return None

    def transform(self, frame: RxMbuf) -> Optional[Packet]:
        """Produce the outgoing packet for ``frame`` (None = drop)."""
        return frame.packet

    # -- measurement and checkpoint support --------------------------------

    measured_fields = ("packets_processed", "packets_forwarded",
                       "packets_dropped_by_app", "tx_ring_drops", "bursts")
    state_fields = ("_idle", "_running", "total_forwarded",
                    "total_absorbed") + measured_fields


class KernelNetApp(Stateful, SimObject):
    """Interrupt-driven kernel-stack application (NAPI loop)."""

    napi_budget = 64

    def __init__(self, sim: Simulation, name: str,
                 driver: InterruptNicDriver, stack: KernelStackModel,
                 core: CoreModel, costs: KernelCosts) -> None:
        super().__init__(sim, name)
        self.driver = driver
        self.stack = stack
        self.core = core
        self.costs = costs
        self._napi_event = self.make_event(self._napi, "napi")
        self._napi_pool = EventPool(self._napi, f"{name}.napi_next")
        self._processing = False
        self.packets_processed = 0
        self.interrupts = 0
        # Lifetime accounting for the conservation layer.  Subclasses
        # that transmit responses count them in ``total_responses``;
        # everything else the RX ring released is absorbed (receive-only
        # service).
        self.total_responses = 0
        driver.set_rx_handler(self._on_irq)
        self.driver_port = RequestPort(self, "driver_port", KIND_APP)
        self.driver_port.bind(driver.app_side)

    def invariant_failures(self, final: bool = True):
        """Packet conservation: the app answered at most as many packets
        as the RX ring released."""
        harvested = self.driver.nic.rx_ring.harvested_total
        if self.total_responses > harvested:
            return [
                f"packet-conservation: responses {self.total_responses} "
                f"exceed harvested packets {harvested}"]
        return []

    @property
    def total_absorbed(self) -> int:
        """Packets consumed without a response leaving the node."""
        return self.driver.nic.rx_ring.harvested_total - self.total_responses

    def held(self) -> int:
        """1 while a NAPI poll round is in flight, else 0."""
        return int(self._processing)

    def _on_irq(self, count: int) -> None:
        self.interrupts += 1
        if self._processing:
            return
        self._processing = True
        self.driver.irq_disable()
        if not self._napi_event.scheduled:
            self.schedule(self._napi_event, self.now)

    def _napi(self, _payload=None) -> None:
        descs = self.driver.harvest(self.napi_budget)
        if not descs:
            self._processing = False
            self.driver.irq_enable()
            # Close the harvest/enable race: anything written back in
            # between is picked up immediately.
            if self.driver.nic.rx_ring.completed_count:
                self._on_irq(self.driver.nic.rx_ring.completed_count)
            return
        batch = len(descs)
        total_ns = 0.0
        for desc in descs:
            payload = max(0, desc.packet.wire_len - 18)
            stack_work = self.stack.rx_work(desc.buffer_addr, payload,
                                            batch_size=batch,
                                            deliver_to_user=True)
            total_ns += self.core.execute(stack_work.kernel)
            total_ns += self.core.execute(stack_work.app)
            total_ns += self.handle_packet(desc, batch)
        self.packets_processed += batch
        if self.sim.tracer.enabled:
            self.trace("app", "napi", harvested=batch,
                       ns=round(total_ns, 3))
        self._napi_pool.schedule_at(
            self.sim.events, self.now + ns_to_ticks(total_ns))

    # -- subclass hook -----------------------------------------------------------

    def handle_packet(self, desc, batch_size: int) -> float:
        """Application-level processing; returns extra nanoseconds."""
        return 0.0

    # -- measurement and checkpoint support --------------------------------

    measured_fields = ("packets_processed", "interrupts")
    state_fields = ("_processing", "total_responses") + measured_fields
