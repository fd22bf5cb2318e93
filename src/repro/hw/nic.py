"""SmartNIC model: MAC ingress, firmware pipeline, DMA engine, on-NIC memory.

The NIC hands every received packet to the installed *I/O architecture
handler* (:mod:`repro.io_arch`), which decides where the packet goes —
host memory via DDIO, host DRAM, on-NIC memory, or dropped. The handler
runs inside the firmware pipeline process, so a handler blocked on PCIe
posted-write credits back-pressures the MAC buffer exactly as real DMA
engines do; a full MAC buffer drops packets (tail drop).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim import Simulator, Store, TokenBucket
from ..sim.stats import TimeWeightedGauge
from .config import NicConfig
from .iio import IioBuffer
from .memctrl import DmaWrite
from .pcie import PcieLink

__all__ = ["OnNicMemory", "DmaEngine", "ArmCores", "Nic"]

#: MAC-side receive buffer (packet FIFO in front of the firmware), bytes.
MAC_BUFFER_BYTES = 1024 * 1024


class OnNicMemory:
    """The SmartNIC's on-board DRAM used for elastic buffering (§4.2)."""

    def __init__(self, sim: Simulator, config: NicConfig):
        self.sim = sim
        self.config = config
        self.capacity = config.memory_size
        self._used = 0
        self._bandwidth = TokenBucket(sim, rate=config.memory_bandwidth,
                                      burst=256 * 1024, name="nicmem.bw")
        self.used_gauge = TimeWeightedGauge("nicmem.used")
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        # Conservation meters (repro.audit): every reservation and every
        # free, at face value — a double free shows up as freed > allocated
        # rather than vanishing into the max(0, ...) clamp below.
        self.allocated_bytes = 0.0
        self.freed_bytes = 0.0

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def allocate(self, nbytes: int) -> bool:
        """Reserve space; returns False when on-NIC memory is exhausted."""
        if self._used + nbytes > self.capacity:
            return False
        self._used += nbytes
        self.allocated_bytes += nbytes
        self.used_gauge.update(self.sim.now, self._used)
        return True

    def free_bytes(self, nbytes: int) -> None:
        self._used = max(0, self._used - nbytes)
        self.freed_bytes += nbytes
        self.used_gauge.update(self.sim.now, self._used)

    def write(self, nbytes: int):
        """Process: NIC-side write into on-board memory.

        Only bandwidth is paid inline: the store latency is hidden by the
        NIC's internal DMA pipelining, so back-to-back buffered packets do
        not serialise on it (it reappears on the read path, where the host
        must wait for the data).
        """
        yield self._bandwidth.take(nbytes)
        self.bytes_written += nbytes

    def read(self, nbytes: int):
        """Process: read from on-board memory (pre-DMA to host)."""
        yield self._bandwidth.take(nbytes)
        yield self.config.memory_latency
        self.bytes_read += nbytes

    def bandwidth_take(self, nbytes: int):
        """Bandwidth-reservation event for an overlapped streaming read."""
        return self._bandwidth.take(nbytes)

    def set_effective_bandwidth(self, rate: float) -> None:
        """Adjust sustained bandwidth (access-pattern efficiency, §6.4)."""
        self._bandwidth.set_rate(max(1.0, rate))


class DmaEngine:
    """Issues DMA writes toward the host and DMA reads of on-NIC memory."""

    def __init__(self, sim: Simulator, pcie: PcieLink, iio: IioBuffer):
        self.sim = sim
        self.pcie = pcie
        self.iio = iio
        self.writes_issued = 0.0
        self.reads_issued = 0.0
        # Fault seams (repro.faults hw.nic): "dma_stall" pushes
        # ``stall_until`` forward; "descriptor_drop" installs a predicate
        # that silently loses writes. Both are inert when healthy.
        self.stall_until = 0.0
        self.drop_filter = None
        self.dropped_writes = 0.0
        # Conservation meters (repro.audit): requests = dropped + pending
        # (stalled / waiting for credits / on the wire) + issued.
        self.requests = 0.0
        self.pending_writes = 0

    def write_to_host(self, write: DmaWrite):
        """Process: stage 1+2 of Figure 2 — credits, wire, then IIO.

        Returns once the write is issued onto the wire; the in-flight PCIe
        latency is pipelined (the landing in the IIO buffer is a callback
        scheduled that far ahead), so back-to-back DMAs overlap exactly as
        posted writes do. Back-pressure comes from posted credits and wire
        bandwidth; credits and wire are taken without suspending when
        they are available.
        """
        self.requests += 1
        if self.drop_filter is not None and self.drop_filter(write):
            # The drop verdict is synchronous (before any yield), so the
            # caller observes ``write.dropped`` the moment this returns and
            # can account the loss to the owning flow.
            write.dropped = True
            self.dropped_writes += 1
            return
        self.pending_writes += 1
        if self.sim.now < self.stall_until:
            yield self.stall_until - self.sim.now
        yield from self.pcie.acquire_write_credits(write.nbytes)
        yield from self.pcie.write_issue(write.nbytes)
        self.pending_writes -= 1
        self.writes_issued += 1
        self.iio.inbound_inflight += 1
        self.sim.call_later(self.pcie.write_latency_event(), self.iio.put,
                            write, write.nbytes)

    def read_from_nic(self, nic_memory: OnNicMemory, nbytes: int):
        """Process: host-issued DMA read of on-NIC memory (CEIO slow path).

        The transfer streams straight from on-board DRAM through the
        internal switch onto PCIe, so serialisation is bounded by the
        *slower* of the two stages (they overlap), plus one on-NIC memory
        access latency and one PCIe round trip (§6.4 blames exactly these
        for the slow-path cost).
        """
        if self.sim.now < self.stall_until:
            yield self.stall_until - self.sim.now
        nicmem_take = nic_memory.bandwidth_take(nbytes)
        wire_take = self.pcie.wire_take(nbytes)
        yield self.sim.all_of([nicmem_take, wire_take])
        yield (nic_memory.config.memory_latency
               + self.pcie.config.read_latency + self.pcie.extra_latency)
        nic_memory.bytes_read += nbytes
        self.pcie.account_read(nbytes)
        self.reads_issued += 1


class ArmCores:
    """The NIC's ARM control cores running I/O-manager logic.

    Control loops run at a polling period (counter polls, credit updates);
    the number of concurrent loops is bounded by the core count.
    """

    def __init__(self, sim: Simulator, config: NicConfig):
        self.sim = sim
        self.config = config
        self._loops: List = []

    @property
    def poll_interval(self) -> float:
        return self.config.arm_poll_interval

    def spawn_loop(self, body: Callable[[], None],
                   period: Optional[float] = None, name: str = "arm-loop"):
        """Run ``body()`` every ``period`` ns forever (a control loop)."""
        if len(self._loops) >= self.config.arm_cores:
            raise RuntimeError("all ARM cores are busy")
        period = self.poll_interval if period is None else period

        def loop(sim):
            while True:
                yield period
                body()

        proc = self.sim.process(loop(self.sim), name=name)
        self._loops.append(proc)
        return proc

    def spawn(self, generator, name: str = "arm-task"):
        """Run an arbitrary process on an ARM core."""
        if len(self._loops) >= self.config.arm_cores:
            raise RuntimeError("all ARM cores are busy")
        proc = self.sim.process(generator, name=name)
        self._loops.append(proc)
        return proc


class Nic:
    """Receive-side NIC: MAC buffer -> firmware pipeline -> handler."""

    def __init__(self, sim: Simulator, config: NicConfig, pcie: PcieLink,
                 iio: IioBuffer):
        self.sim = sim
        self.config = config
        self.dma = DmaEngine(sim, pcie, iio)
        self.memory = OnNicMemory(sim, config)
        self.arm = ArmCores(sim, config)
        self._ingress = Store(sim, name="nic.mac")
        self._mac_bytes = 0
        self._mac_pkts = 0
        self.handler = None  # installed by an IOArchitecture
        self.rx_packets = 0.0
        self.rx_bytes = 0.0
        self.dropped_packets = 0.0
        self.handled_packets = 0.0
        #: 1 while a packet is inside the handler generator (at most one —
        #: a single firmware pipeline); the audit slack for the window
        #: between entering ``on_packet`` and its admit/drop decision.
        self.handler_inflight = 0
        self.mac_gauge = TimeWeightedGauge("nic.mac_occupancy")
        self._firmware = sim.process(self._firmware_loop(), name="nic-fw")

    def install_handler(self, handler) -> None:
        """Attach the receive-side I/O architecture."""
        self.handler = handler

    def receive(self, packet) -> bool:
        """Called by the network link on packet arrival. Returns False on drop."""
        self.rx_packets += 1
        self.rx_bytes += packet.size
        if self.handler is None or self._mac_bytes + packet.size > MAC_BUFFER_BYTES:
            self.dropped_packets += 1
            self._notify_drop(packet)
            return False
        self._mac_bytes += packet.size
        self._mac_pkts += 1
        self.mac_gauge.update(self.sim.now, self._mac_bytes)
        self._ingress.try_put(packet)
        return True

    def _notify_drop(self, packet) -> None:
        on_drop = getattr(self.handler, "on_drop", None)
        if on_drop is not None:
            on_drop(packet)

    def _firmware_loop(self):
        ingress = self._ingress
        while True:
            packet = ingress.try_get()
            if packet is None:
                packet = yield ingress.get()
            yield self.config.firmware_overhead
            self.handler_inflight = 1
            yield from self.handler.on_packet(packet)
            self.handler_inflight = 0
            self.handled_packets += 1
            self._mac_bytes -= packet.size
            self._mac_pkts -= 1
            self.mac_gauge.update(self.sim.now, self._mac_bytes)
