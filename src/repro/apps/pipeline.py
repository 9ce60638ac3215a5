"""Pipeline-mode DPDK application (paper §II.A).

"Pipeline mode: where the cores pass packets between each other via a
user-level ring buffer for efficient packet processing."

An RX core runs the PMD receive loop and enqueues frames into an
``rte_ring``; a worker core dequeues bursts, does the packet processing
(payload touch, like a deep network function stage), and transmits.  Each
core has its own timeline; they share the memory hierarchy (same-socket
cores behind a shared LLC).

This is the paper's alternative to run-to-completion mode and
demonstrates the framework's ``rte_ring`` in its intended role.
"""

from __future__ import annotations

from typing import List

from repro.cpu.core import CoreModel, Work
from repro.cpu.kernels import KernelCosts, touch_lines
from repro.dpdk.pmd import E1000Pmd, RxMbuf
from repro.dpdk.ring import RteRing
from repro.mem.address import AddressSpace
from repro.sim.checkpoint import Stateful
from repro.sim.event_queue import EventPool
from repro.sim.ports import KIND_APP, RequestPort
from repro.sim.simobject import SimObject, Simulation
from repro.sim.ticks import ns_to_ticks

from repro.apps.base import POLL_REACTION_NS
from repro.apps.touchfwd import (
    TOUCH_CYCLES_PER_LINE,
    TOUCH_INORDER_PENALTY,
    TOUCH_MAX_MLP,
)

RING_ENQ_DEQ_CYCLES = 25   # per-packet rte_ring enqueue+dequeue pair


class PipelineForwarder(Stateful, SimObject):
    """Two-stage pipeline: RX core -> rte_ring -> worker core -> TX.

    ``touch_payload`` selects the worker stage's depth: False makes the
    worker a shallow forwarder (testpmd-like), True a deep one
    (touchfwd-like).
    """

    burst_size = 32

    def __init__(self, sim: Simulation, name: str, pmd: E1000Pmd,
                 rx_core: CoreModel, worker_core: CoreModel,
                 costs: KernelCosts, address_space: AddressSpace,
                 ring_size: int = 1024,
                 touch_payload: bool = False) -> None:
        super().__init__(sim, name)
        self.pmd = pmd
        self.rx_core = rx_core
        self.worker_core = worker_core
        self.costs = costs
        self.ring = RteRing(f"{name}.ring", ring_size)
        self.touch_payload = touch_payload
        region = address_space.allocate(f"{name}.text", 16 * 1024)
        self._code = [region.addr(i * 64) for i in range(8)]
        self._rx_event = self.make_event(self._rx_poll, "rx_poll")
        self._worker_event = self.make_event(self._worker_poll,
                                             "worker_poll")
        # The two stages' burst completions, bare queue entries instead
        # of a fresh event and closure per burst.
        self._rx_resume_pool = EventPool(self._rx_resume,
                                         f"{name}.rx_resume")
        self._worker_finish_pool = EventPool(self._worker_finish,
                                             f"{name}.worker_finish")
        self._running = False
        self._rx_idle = True
        self._worker_idle = True
        self.packets_received = 0
        self.packets_processed = 0
        self.packets_forwarded = 0
        self.ring_full_drops = 0
        self.tx_ring_drops = 0
        # Lifetime accounting for the conservation layer: every frame the
        # RX stage harvests (the RX ring's harvested_total) is forwarded,
        # absorbed (ring/TX-ring drop), queued in the rte_ring, or held by
        # one of the two stages.
        self.total_forwarded = 0
        self.total_absorbed = 0
        self._holding = 0
        pmd.nic.rx_notify = self._rx_hint
        self.driver_port = RequestPort(self, "driver_port", KIND_APP)
        self.driver_port.bind(pmd.app_side)

    def invariant_failures(self, final: bool = True):
        """The rte_ring's own conservation, and packet conservation:
        every harvested frame is forwarded, absorbed, queued in the ring
        or held by a stage."""
        fails = []
        for message in self.ring.invariant_failures(final):
            fails.append(f"ring-conservation: {message}")
        harvested = self.pmd.nic.rx_ring.harvested_total
        accounted = (self.total_forwarded + self.total_absorbed
                     + self.ring.held() + self._holding)
        if harvested != accounted:
            fails.append(
                f"packet-conservation: harvested {harvested} != "
                f"forwarded {self.total_forwarded} + absorbed "
                f"{self.total_absorbed} + ring {self.ring.held()} + "
                f"holding {self._holding}")
        return fails

    def held(self) -> int:
        """Frames queued in the ring or held by the worker mid-burst."""
        return self._holding + self.ring.held()

    # -- lifecycle ---------------------------------------------------------

    def start(self, when: int = 0) -> None:
        """Begin operation at tick ``when`` (default: now)."""
        self._running = True
        self._rx_idle = False
        self._worker_idle = False
        start = max(when, self.now)
        self.schedule(self._rx_event, start)
        self.schedule(self._worker_event, start)

    def stop(self) -> None:
        """Stop operation; pending events are cancelled."""
        self._running = False
        for event in (self._rx_event, self._worker_event):
            if event.scheduled:
                self.deschedule(event)

    def _rx_hint(self, count: int) -> None:
        if self._running and self._rx_idle and not self._rx_event.scheduled:
            self._rx_idle = False
            self.schedule_after(self._rx_event,
                                ns_to_ticks(POLL_REACTION_NS))

    # -- RX stage (core 0) ---------------------------------------------------

    def _rx_poll(self) -> None:
        if not self._running:
            return
        frames = self.pmd.rx_burst(self.burst_size)
        if not frames:
            self._rx_idle = True
            return
        self.packets_received += len(frames)
        total_ns = self.rx_core.execute(Work(
            compute_cycles=self.costs.pmd_rx_burst_cycles,
            ifetch=self._code[:4]))
        for frame in frames:
            total_ns += self.rx_core.execute(Work(
                compute_cycles=(self.costs.pmd_per_packet_cycles
                                + RING_ENQ_DEQ_CYCLES),
                reads=[frame.desc_addr],
                writes=[frame.mbuf.buffer_addr]))
        accepted = self.ring.enqueue_burst(frames)
        for frame in frames[accepted:]:
            # Worker backpressure: the RX stage drops at the ring.
            self.ring_full_drops += 1
            self.total_absorbed += 1
            self.pmd.free(frame)
        if self.sim.tracer.enabled:
            self.trace("app", "rx_stage", harvested=len(frames),
                       enqueued=accepted)
        self._rx_resume_pool.schedule_at(
            self.sim.events, self.now + ns_to_ticks(total_ns))
        self._wake_worker()

    def _rx_resume(self, _payload=None) -> None:
        if self._running:
            self._rx_poll()

    # -- worker stage (core 1) -------------------------------------------------

    def _wake_worker(self) -> None:
        if (self._running and self._worker_idle
                and not self._worker_event.scheduled):
            self._worker_idle = False
            self.schedule_after(self._worker_event,
                                ns_to_ticks(POLL_REACTION_NS))

    def _worker_poll(self) -> None:
        if not self._running:
            return
        frames: List[RxMbuf] = self.ring.dequeue_burst(self.burst_size)
        if not frames:
            self._worker_idle = True
            return
        total_ns = self.worker_core.execute(Work(
            compute_cycles=self.costs.pmd_tx_burst_cycles,
            ifetch=self._code[4:]))
        for frame in frames:
            if self.touch_payload:
                lines = touch_lines(frame.mbuf.data_addr,
                                    frame.packet.wire_len)
                work = Work(
                    compute_cycles=(self.costs.app_base_cycles
                                    + RING_ENQ_DEQ_CYCLES
                                    + TOUCH_CYCLES_PER_LINE * len(lines)),
                    reads=lines,
                    max_mlp=TOUCH_MAX_MLP,
                    inorder_penalty=TOUCH_INORDER_PENALTY)
            else:
                work = Work(
                    compute_cycles=(self.costs.app_base_cycles
                                    + RING_ENQ_DEQ_CYCLES),
                    reads=[frame.mbuf.data_addr],
                    writes=[frame.mbuf.data_addr])
            total_ns += self.worker_core.execute(work)
            frame.packet = frame.packet.response_to()
            frame.packet.meta["mbuf"] = frame.mbuf
        self.packets_processed += len(frames)
        self._holding += len(frames)
        self._worker_finish_pool.schedule_at(
            self.sim.events, self.now + ns_to_ticks(total_ns), frames)

    def _worker_finish(self, frames: List[RxMbuf]) -> None:
        self._holding -= len(frames)
        sent = self.pmd.tx_burst(frames)
        self.packets_forwarded += sent
        self.total_forwarded += sent
        for frame in frames[sent:]:
            self.tx_ring_drops += 1
            self.total_absorbed += 1
            self.pmd.free(frame)
        if self._running:
            self._worker_poll()

    # -- measurement and checkpoint support --------------------------------

    measured_fields = ("packets_received", "packets_processed",
                       "packets_forwarded", "ring_full_drops",
                       "tx_ring_drops")
    # Both stages' flags/counters plus the inter-core ring's cursors
    # (its queued frames are live packets, counted in held()).
    state_fields = ("_running", "_rx_idle", "_worker_idle",
                    "total_forwarded", "total_absorbed",
                    "ring") + measured_fields
