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
from .dram import Dram
from .iio import IioBuffer, IioEntry
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
    """One server serialising IIO entries into the memory system.

    A callback state machine: serving an entry schedules its fill (or
    DRAM write) delay, completing it takes the next entry, and an empty
    IIO buffer registers :meth:`_serve` to be called by the next landing.
    """

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
        self.writes_completed = 0.0
        self.writeback_bytes = 0.0
        # Conservation meters (repro.audit): every completed write either
        # delivered to an I/O-architecture descriptor or had no consumer.
        self.deliveries = 0.0
        self.no_deliver = 0.0
        # Bound once: an idle controller hands it to the IIO buffer on
        # every empty take.
        self._serve = self._serve  # type: ignore[method-assign]
        sim.call_later(0.0, self._serve_next)

    def _serve_next(self) -> None:
        entry = self.iio.take(self._serve)
        if entry is not None:
            self._serve(entry)

    def _serve(self, entry: IioEntry) -> None:
        write: DmaWrite = entry.payload
        if not write.ddio:
            self.dram.write(write.nbytes, self._complete, entry)
            return
        evicted = self.llc.io_insert(write.key, write.nbytes)
        fill = write.nbytes / self.LLC_FILL_BANDWIDTH
        if evicted:
            # Dirty evicted lines drain at write-back bandwidth before
            # the next IIO entry is served (§2.2's "extra memory
            # bandwidth" cost of DDIO thrash).
            self.sim.call_later(fill + evicted / self.WRITEBACK_BANDWIDTH,
                                self._written_back, entry, evicted)
        else:
            self.sim.call_later(fill, self._complete, entry)

    def _written_back(self, entry: IioEntry, evicted: int) -> None:
        self.dram.record_demand(self.sim.now, evicted, write=True)
        self.writeback_bytes += evicted
        self._complete(entry)

    def _complete(self, entry: IioEntry) -> None:
        write: DmaWrite = entry.payload
        self.iio.complete(entry)
        self.pcie.release_write_credits(write.nbytes)
        self.writes_completed += 1
        if write.deliver is not None:
            self.deliveries += 1
            write.deliver(self.sim.now)
        else:
            self.no_deliver += 1
        self._serve_next()
