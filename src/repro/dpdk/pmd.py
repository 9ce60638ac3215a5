"""The e1000 poll-mode driver.

Burst receive/transmit over the :class:`~repro.nic.i8254x.I8254xNic` model.
Launching the PMD requires a working Interrupt Mask Register — the PMD
masks all device interrupts at start-up, and the paper's fifth gem5 change
(§III.A.5) implements exactly the IMS/IMC read/write methods this needs.
"""

from __future__ import annotations


from typing import List, Sequence

from repro.dpdk.mempool import Mbuf, Mempool
from repro.net.packet import Packet
from repro.nic.i8254x import I8254xNic, REG_IMC
from repro.sim.checkpoint import Stateful
from repro.sim.ports import (
    KIND_APP,
    KIND_BUFFER,
    KIND_DRIVER,
    RequestPort,
    ResponsePort,
)


class PmdLaunchError(RuntimeError):
    """The PMD could not take control of the device."""


class RxMbuf:
    """One received packet as the application sees it.

    Slotted: one instance per harvested packet on the PMD hot path.
    """

    __slots__ = ("mbuf", "packet", "desc_addr")

    def __init__(self, mbuf: Mbuf, packet: Packet,
                 desc_addr: int) -> None:
        self.mbuf = mbuf
        self.packet = packet
        self.desc_addr = desc_addr

    def __repr__(self) -> str:
        return (f"RxMbuf(mbuf={self.mbuf!r}, packet={self.packet!r}, "
                f"desc_addr={self.desc_addr!r})")


class E1000Pmd(Stateful):
    """Polling-mode driver bound to one NIC port."""

    def __init__(self, nic: I8254xNic, mempool: Mempool) -> None:
        if nic.driver_name != "uio_pci_generic":
            raise PmdLaunchError(
                f"{nic.name} is not bound to uio_pci_generic; bind it first "
                "(dpdk-devbind.py -b uio_pci_generic <BDF>)")
        self.nic = nic
        self.mempool = mempool
        self.name = f"{nic.name}.pmd"
        self.device_port = RequestPort(self, "device_port", KIND_DRIVER)
        self.mempool_port = RequestPort(self, "mempool_port", KIND_BUFFER)
        self.app_side = ResponsePort(
            self, "app_side", KIND_APP,
            hint="install a DPDK application on this PMD "
                 "(node.install_app / install_pipeline_app)")
        self._launch()
        # A PMD owns its device and buffer pool for its lifetime; record
        # both edges in the wiring graph once the launch has succeeded.
        self.device_port.bind(nic.driver_side)
        self.mempool_port.bind(mempool.client_side)
        # Packets are counted by the rings they cross (the RX ring's
        # harvested_total, the TX ring's enqueued_total); the PMD counts
        # only its bursts.
        self.rx_bursts = 0
        self.empty_rx_bursts = 0
        self.tx_ring_full_events = 0

    def _launch(self) -> None:
        # A PMD's first act is masking all interrupts; if the device's mask
        # register is not implemented this fails (baseline gem5, §III.A.5).
        self.nic.write_reg(REG_IMC, 0xFFFFFFFF)
        if not self.nic.interrupt_mask_operational():
            raise PmdLaunchError(
                f"{self.nic.name}: Interrupt Mask Register reads/writes are "
                "not implemented; the PMD cannot launch (the baseline gem5 "
                "limitation fixed in paper §III.A.5)")
        self.nic.write_reg(REG_IMC, 0xFFFFFFFF)   # leave interrupts masked
        self.nic.rx_buffer_source = self._rx_buffer_for
        self.nic.rx_notify = None                 # polling, not interrupts
        if not self.nic.nic_config.quirks.pmd_writeback_threshold_works:
            # Baseline gem5 + PMD: threshold registers are never programmed,
            # so the NIC only writes back when the whole descriptor cache is
            # used — packets DMA in 32-64 packet batches (§III.A.3).
            self.nic.rx_ring.writeback_threshold = \
                self.nic.rx_ring.desc_cache_size
            self.nic._wb_timer_disabled = True
        self.nic.tx_complete_notify = self._on_tx_complete

    # -- NIC-facing hooks -------------------------------------------------

    def _rx_buffer_for(self, packet: Packet):
        """Supply the next posted buffer's address for an incoming DMA.

        Returns None under mempool exhaustion (an application-side buffer
        leak or severe backlog): the NIC stalls its RX DMA rather than the
        simulation crashing — as hardware would."""
        mbuf = self.mempool.try_get()
        if mbuf is None:
            return None
        mbuf.packet = packet
        packet.meta["mbuf"] = mbuf
        return mbuf.data_addr

    def _on_tx_complete(self, packet: Packet) -> None:
        mbuf = packet.meta.pop("mbuf", None)
        if mbuf is not None:
            mbuf.free()

    # -- application API ---------------------------------------------------

    def rx_burst(self, max_count: int = 32) -> List[RxMbuf]:
        """rte_eth_rx_burst: harvest completed RX descriptors and
        replenish the ring."""
        self.rx_bursts += 1
        descs = self.nic.rx_ring.harvest(max_count)
        if not descs:
            self.empty_rx_bursts += 1
            return []
        self.nic.rx_replenish(len(descs))
        out: List[RxMbuf] = []
        for desc in descs:
            mbuf = desc.packet.meta.get("mbuf")
            out.append(RxMbuf(mbuf=mbuf, packet=desc.packet,
                              desc_addr=self.nic.rx_ring.desc_addr(desc.index)))
        return out

    def tx_burst(self, frames: Sequence[RxMbuf]) -> int:
        """rte_eth_tx_burst: enqueue frames for transmission; returns how
        many the TX ring accepted.  Rejected frames stay owned by the
        caller (to retry or drop)."""
        sent = 0
        for frame in frames:
            if not self.nic.tx_enqueue(frame.mbuf.data_addr, frame.packet):
                self.tx_ring_full_events += 1
                break
            sent += 1
        return sent

    def free(self, frame: RxMbuf) -> None:
        """Drop a packet without transmitting (rte_pktmbuf_free)."""
        frame.packet.meta.pop("mbuf", None)
        frame.mbuf.free()

    # -- checkpoint support --------------------------------------------------

    state_fields = ("rx_bursts", "empty_rx_bursts", "tx_ring_full_events")
