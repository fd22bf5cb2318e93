"""Host memory controller: drains the IIO buffer into LLC or DRAM.

Stage 3 of the data path (Figure 2). With DDIO the write allocates directly
into the LLC's DDIO ways; evictions caused by the allocation generate DRAM
write-back traffic. Without DDIO (or for writes the I/O architecture marks
as cache-bypassing) the payload goes straight to DRAM at DRAM cost.

Draining returns PCIe posted-write credits, closing the back-pressure loop
NIC -> PCIe -> IIO -> memory controller.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Simulator
from ..sim.stats import Counter
from .dram import Dram
from .iio import IioBuffer
from .pcie import PcieLink

__all__ = ["DmaWrite", "MemoryController"]


class DmaWrite:
    """What the NIC's DMA engine asks the memory controller to do."""

    __slots__ = ("key", "nbytes", "ddio", "deliver", "flow_id", "dropped")

    def __init__(self, key, nbytes: int, ddio: bool,
                 deliver: Optional[Callable[[float], None]] = None,
                 flow_id: Optional[int] = None):
        self.key = key
        self.nbytes = nbytes
        #: Whether the write allocates into the LLC's DDIO ways.
        self.ddio = ddio
        #: Called (with completion time) once the data is in LLC/DRAM.
        self.deliver = deliver
        #: Owning flow, when known — lets per-flow fault filters
        #: (hw.nic "descriptor_drop") target a single victim.
        self.flow_id = flow_id
        #: Set synchronously by the DMA engine when a descriptor-drop fault
        #: swallows the write, so the issuer can account the loss.
        self.dropped = False


class MemoryController:
    """A single drain process serialising IIO entries into the memory system."""

    #: Fill bandwidth from IIO into the LLC, bytes/ns. Fast relative to
    #: DRAM — an LLC allocation costs no memory-channel time.
    LLC_FILL_BANDWIDTH = 100.0
    #: Sustained write-back drain rate toward DRAM, bytes/ns (the share of
    #: channel bandwidth the uncore's write-back engine achieves for dirty
    #: I/O lines). Together with LLC_FILL_BANDWIDTH this caps the drain at
    #: ~23 bytes/ns while every insert evicts — just below a 200 Gbps
    #: line-rate ingress, so *line-rate thrash backs the IIO buffer up*
    #: (the congestion HostCC observes), while CPU-bound steady states
    #: (a few bytes/ns) drain freely.
    WRITEBACK_BANDWIDTH = 30.0

    def __init__(self, sim: Simulator, iio: IioBuffer, llc, dram: Dram,
                 pcie: PcieLink):
        self.sim = sim
        self.iio = iio
        self.llc = llc
        self.dram = dram
        self.pcie = pcie
        self.writes_completed = Counter("memctrl.writes")
        self.writeback_bytes = Counter("memctrl.writebacks")
        # Conservation meters (repro.audit): every completed write either
        # delivered to an I/O-architecture descriptor or had no consumer.
        self.deliveries = Counter("memctrl.deliveries")
        self.no_deliver = Counter("memctrl.no_deliver")
        self._proc = sim.process(self._drain_loop(), name="memctrl")

    def _drain_loop(self):
        iio = self.iio
        while True:
            entry = iio.try_get()
            if entry is None:
                entry = yield iio.get()
            write: DmaWrite = entry.payload
            if write.ddio:
                evicted = self.llc.io_insert(write.key, write.nbytes)
                fill = write.nbytes / self.LLC_FILL_BANDWIDTH
                if evicted:
                    # Dirty evicted lines drain at write-back bandwidth
                    # before the next IIO entry is served (§2.2's "extra
                    # memory bandwidth" cost of DDIO thrash).
                    yield fill + evicted / self.WRITEBACK_BANDWIDTH
                    self.dram.record_demand(self.sim.now, evicted,
                                            write=True)
                    self.writeback_bytes.add(evicted)
                else:
                    yield fill
            else:
                yield from self.dram.write(write.nbytes)
            iio.complete(entry)
            self.pcie.release_write_credits(write.nbytes)
            self.writes_completed.add(1)
            if write.deliver is not None:
                self.deliveries.add(1)
                write.deliver(self.sim.now)
            else:
                self.no_deliver.add(1)
