"""The NIC's DMA engine.

Moves packet bytes between the NIC FIFOs and host memory over the I/O bus
(the link "that loosely models a PCIe bus between the NIC and CPU",
§VII.B).  The bus is full-duplex: inbound (RX writes, descriptor
writebacks) and outbound (TX reads) directions have independent bandwidth,
as PCIe lanes do.  Each transfer occupies its direction for a fixed
per-packet setup plus the larger of the bus serialization time and the
memory-side time (line writes into the LLC with DCA, or DRAM without);
the bus's fixed propagation latency delays *completion* but does not
serialize the engine — transfers pipeline behind one another.

This engine is the component the paper identifies as gem5's large-packet
bottleneck: "at large packet sizes, gem5's DMA engine is the bottleneck"
(§I), and it is where the DmaDrop cause originates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.kernels import LINE_SIZE
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.xbar import BandwidthServer
from repro.sim.checkpoint import Stateful
from repro.sim.ports import (
    KIND_BUS,
    KIND_DMA,
    KIND_MEM,
    RequestPort,
    ResponsePort,
)
from repro.sim.ticks import TICKS_PER_NS


@dataclass(frozen=True)
class DmaConfig:
    """DMA engine parameters."""

    setup_ns: float = 15.0        # per-packet descriptor/doorbell handling
    mem_parallelism: int = 4      # outstanding line transactions
    desc_bytes: int = 16          # descriptor size moved per packet

    def __post_init__(self) -> None:
        if self.setup_ns < 0:
            raise ValueError("setup time cannot be negative")
        if self.mem_parallelism < 1:
            raise ValueError("memory parallelism must be >= 1")


class DmaEngine(Stateful):
    """Pipelined, full-duplex packet DMA."""

    def __init__(self, config: DmaConfig, iobus_rx: BandwidthServer,
                 hierarchy: MemoryHierarchy,
                 iobus_tx: BandwidthServer = None,
                 name: str = "dma") -> None:
        line_size = hierarchy.config.dram.line_size
        if line_size != LINE_SIZE:
            raise ValueError(
                f"{name}: hierarchy line size {line_size} is not the "
                f"{LINE_SIZE} B line packets are split by")
        self.config = config
        self.name = name
        self.iobus_rx = iobus_rx
        self.iobus_tx = iobus_tx if iobus_tx is not None else BandwidthServer(
            f"{iobus_rx.name}.tx", iobus_rx.bytes_per_sec,
            iobus_rx.latency_ticks)
        self.hierarchy = hierarchy
        # The device (NIC) binds its dma_port here; the engine itself is a
        # requestor toward the memory hierarchy and both bus directions.
        self.device_side = ResponsePort(self, "device_side", KIND_DMA)
        self.mem_port = RequestPort(self, "mem_port", KIND_MEM)
        self.mem_port.bind(hierarchy.dma_side)
        self.bus_rx_port = RequestPort(self, "bus_rx_port", KIND_BUS)
        self.bus_rx_port.bind(self.iobus_rx.device_side,
                              bytes_per_sec=self.iobus_rx.bytes_per_sec,
                              latency_ticks=self.iobus_rx.latency_ticks)
        self.bus_tx_port = RequestPort(self, "bus_tx_port", KIND_BUS)
        self.bus_tx_port.bind(self.iobus_tx.device_side,
                              bytes_per_sec=self.iobus_tx.bytes_per_sec,
                              latency_ticks=self.iobus_tx.latency_ticks)
        self._rx_busy_until = 0
        self._tx_busy_until = 0
        self.packets_written = 0
        self.packets_read = 0
        self.bytes_written = 0
        self.bytes_read = 0
        # Line-granular counters mirroring what the engine pushed into the
        # memory hierarchy; the DMA byte-conservation invariant checks them
        # against the hierarchy's own dma_lines_written/read.
        self.lines_written = 0
        self.lines_read = 0
        self.desc_lines_written = 0

    @property
    def rx_busy_until(self) -> int:
        """Tick the inbound DMA direction frees up."""
        return self._rx_busy_until

    @property
    def tx_busy_until(self) -> int:
        """Tick the outbound DMA direction frees up."""
        return self._tx_busy_until

    def _memory_ns(self, base_addr: int, nbytes: int, write: bool,
                   now_ns: float) -> float:
        """Aggregate memory-side time for the lines covering
        ``[base_addr, base_addr + nbytes)``, overlapped up to
        ``mem_parallelism`` outstanding transactions."""
        if nbytes > 0:
            first = base_addr // LINE_SIZE
            n_lines = (base_addr + nbytes - 1) // LINE_SIZE - first + 1
        else:
            first = n_lines = 0
        if write:
            total = self.hierarchy.dma_write_lines(
                first * LINE_SIZE, n_lines, now_ns)
            self.lines_written += n_lines
        else:
            total = self.hierarchy.dma_read_lines(
                first * LINE_SIZE, n_lines, now_ns)
            self.lines_read += n_lines
        return total / self.config.mem_parallelism

    def write_packet(self, now: int, buffer_addr: int, nbytes: int) -> int:
        """DMA a received packet into host memory; returns the completion
        tick (data visible to the CPU).  The inbound direction is occupied
        for the serialization time only; propagation latency pipelines."""
        start = max(now, self._rx_busy_until)
        now_ns = start / TICKS_PER_NS
        bus_bytes = nbytes + self.config.desc_bytes
        busy_ticks = self.iobus_rx.occupancy_ticks(bus_bytes)
        self.iobus_rx.bytes_moved += bus_bytes
        self.iobus_rx.transfers += 1
        mem_ns = self._memory_ns(buffer_addr, nbytes, True, now_ns)
        occupancy_ns = self.config.setup_ns + max(
            busy_ticks / TICKS_PER_NS, mem_ns)
        self._rx_busy_until = start + round(occupancy_ns * TICKS_PER_NS)
        self.packets_written += 1
        self.bytes_written += nbytes
        return self._rx_busy_until + self.iobus_rx.latency_ticks

    def read_packet(self, now: int, buffer_addr: int, nbytes: int) -> int:
        """DMA a transmit packet out of host memory; returns the tick the
        frame is ready in the NIC TX FIFO."""
        start = max(now, self._tx_busy_until)
        now_ns = start / TICKS_PER_NS
        bus_bytes = nbytes + self.config.desc_bytes
        busy_ticks = self.iobus_tx.occupancy_ticks(bus_bytes)
        self.iobus_tx.bytes_moved += bus_bytes
        self.iobus_tx.transfers += 1
        mem_ns = self._memory_ns(buffer_addr, nbytes, False, now_ns)
        occupancy_ns = self.config.setup_ns + max(
            busy_ticks / TICKS_PER_NS, mem_ns)
        self._tx_busy_until = start + round(occupancy_ns * TICKS_PER_NS)
        self.packets_read += 1
        self.bytes_read += nbytes
        return self._tx_busy_until + self.iobus_tx.latency_ticks

    def writeback_descriptors(self, now: int, count: int,
                              desc_addrs=()) -> int:
        """DMA a descriptor-cache writeback batch; returns finish tick.

        ``desc_addrs`` are the descriptors' memory addresses so their lines
        land in the hierarchy like any other inbound DMA (the driver's next
        poll reads them).
        """
        if count <= 0:
            return max(now, self._rx_busy_until)
        start = max(now, self._rx_busy_until)
        now_ns = start / TICKS_PER_NS
        lines_seen = set()
        for addr in desc_addrs:
            line = addr - (addr % LINE_SIZE)
            if line not in lines_seen:
                lines_seen.add(line)
                self.hierarchy.dma_write_lines(line, 1, now_ns)
                self.desc_lines_written += 1
        nbytes = count * self.config.desc_bytes
        busy_ticks = self.iobus_rx.occupancy_ticks(nbytes)
        self.iobus_rx.bytes_moved += nbytes
        self.iobus_rx.transfers += 1
        self._rx_busy_until = start + busy_ticks
        return self._rx_busy_until + self.iobus_rx.latency_ticks

    # -- measurement and checkpoint support ----------------------------------

    measured_fields = ("packets_written", "packets_read", "bytes_written",
                       "bytes_read", "lines_written", "lines_read",
                       "desc_lines_written")
    state_fields = ("_rx_busy_until", "_tx_busy_until") + measured_fields

    #: The rule below checks nothing unless ``final``, so the topology
    #: does not call it in strict mode's per-event pass.
    final_checks_only = True

    def invariant_failures(self, final: bool = True):
        """Byte/line conservation between this engine and the memory
        hierarchy it writes through; empty list when consistent.
        Checked at final checks only.

        Holds exactly only when this engine is the hierarchy's sole DMA
        client and both sides' counters were reset back-to-back — the
        rig's one ``reset_measurement`` walk resets every component of
        the topology together.
        """
        if not final:
            return []
        fails = []
        h = self.hierarchy
        pushed = self.lines_written + self.desc_lines_written
        if h.dma_lines_written != pushed:
            fails.append(
                f"hierarchy saw {h.dma_lines_written} DMA line writes but "
                f"engine issued {pushed} "
                f"({self.lines_written} packet + "
                f"{self.desc_lines_written} descriptor)")
        if h.dma_lines_read != self.lines_read:
            fails.append(
                f"hierarchy saw {h.dma_lines_read} DMA line reads but "
                f"engine issued {self.lines_read}")
        # A packet of N > 0 bytes covers at least ceil(N/64) lines and, at
        # the worst alignment, (N + 62) // 64 + 1; summing the floors over
        # packets stays below the floor of the sum.
        if self.lines_written * LINE_SIZE < self.bytes_written:
            fails.append(
                f"{self.lines_written} written lines cannot carry "
                f"{self.bytes_written} packet bytes")
        if self.lines_read * LINE_SIZE < self.bytes_read:
            fails.append(
                f"{self.lines_read} read lines cannot carry "
                f"{self.bytes_read} packet bytes")
        slack = LINE_SIZE - 2
        if self.lines_written > (self.bytes_written
                                 + slack * self.packets_written) \
                // LINE_SIZE + self.packets_written:
            fails.append(
                f"{self.lines_written} written lines exceeds the maximum "
                f"for {self.packets_written} packets totalling "
                f"{self.bytes_written}B")
        if self.lines_read > (self.bytes_read + slack * self.packets_read) \
                // LINE_SIZE + self.packets_read:
            fails.append(
                f"{self.lines_read} read lines exceeds the maximum for "
                f"{self.packets_read} packets totalling {self.bytes_read}B")
        return fails
