"""RXpTX — configurable processing-interval forwarder.

"RXpTX receives a burst of packets from NIC, waits for a processing
interval, and transmits them over the network.  Changing processing time
can model network functions with different DMA to core use distances.
RXpTX can be used to evaluate the performance of various policies for
Direct Cache Access (DCA)." (paper §V)

The processing interval is a busy-wait *per burst* (a fixed number of
spin iterations, so its wall time scales inversely with core frequency).
Longer intervals delay the consumption of DMA-ed packet data — exactly
the DMA-to-core use distance Fig 13 sweeps to expose DCA partition leaks.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.base import DpdkApp
from repro.cpu.core import Work
from repro.dpdk.pmd import RxMbuf
from repro.net.packet import Packet

#: Reference frequency at which the configured interval is exact: the
#: spin-loop iteration count is ``proc_time_ns * 3`` (Table I: 3GHz).
NOMINAL_FREQ_GHZ = 3.0


class RxPTx(DpdkApp):
    """RX burst -> spin for proc_time -> TX burst."""

    def __init__(self, *args, proc_time_ns: float = 10.0, **kwargs) -> None:
        if proc_time_ns < 0:
            raise ValueError("processing time cannot be negative")
        super().__init__(*args, **kwargs)
        self.proc_time_ns = proc_time_ns
        self._proc_cycles = round(proc_time_ns * NOMINAL_FREQ_GHZ)
        self._burst_pending = False

    def frame_work(self, frame: RxMbuf) -> Optional[Work]:
        # The wait happens once per burst: charge it to the first frame.
        """Per-packet application work for one received frame."""
        if self._burst_pending:
            self._burst_pending = False
            return Work(compute_cycles=self._proc_cycles)
        return None

    def _poll(self) -> None:
        self._burst_pending = True
        super()._poll()

    def transform(self, frame: RxMbuf) -> Optional[Packet]:
        """Outgoing packet for this frame (None drops it)."""
        return frame.packet.response_to()

    state_fields = DpdkApp.state_fields + ("_burst_pending",)
