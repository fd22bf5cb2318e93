"""A DPDK-flavoured poll-mode I/O facade (`librte_ethdev` analogue).

CEIO's host library sits on top of ``librte_ethdev`` (§5); applications in
this repo consume packets through this shim so switching the underlying
I/O architecture (baseline / HostCC / ShRing / CEIO) never changes
application code — exactly the compatibility story of the paper.
"""

from __future__ import annotations

from typing import List, Optional

from ..io_arch.base import IOArchitecture, RxRecord
from ..net.packet import Flow

__all__ = ["Mempool", "EthDev", "RX_BURST_MAX"]

#: Standard DPDK burst size.
RX_BURST_MAX = 32


class Mempool:
    """Fixed-size mbuf pool with allocation accounting.

    Descriptor-level back-pressure lives in the I/O architecture; the pool
    tracks software-side exhaustion (an application bug class worth
    simulating: leaking mbufs eventually stalls receive).
    """

    def __init__(self, name: str, capacity: int, buf_size: int = 2048):
        if capacity <= 0:
            raise ValueError("mempool capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.buf_size = buf_size
        self._free = capacity
        self.alloc_failures = 0.0

    @property
    def available(self) -> int:
        return self._free

    @property
    def in_use(self) -> int:
        return self.capacity - self._free

    def alloc(self, count: int = 1) -> bool:
        if count > self._free:
            self.alloc_failures += 1
            return False
        self._free -= count
        return True

    def free(self, count: int = 1) -> None:
        self._free = min(self.capacity, self._free + count)


class EthDev:
    """Poll-mode ethernet device bound to one I/O architecture."""

    def __init__(self, arch: IOArchitecture,
                 mempool: Optional[Mempool] = None):
        self.arch = arch
        self.sim = arch.sim
        self.mempool = mempool or Mempool(
            "default", capacity=1 << 20,
            buf_size=arch.host.config.io_buf_size)
        self.rx_burst_calls = 0.0
        self.tx_packets = 0.0

    def rx_queue_setup(self, flow: Flow) -> None:
        """Bind a flow to a receive queue (rte_eth_rx_queue_setup)."""
        self.arch.register_flow(flow)

    def rx_burst(self, flow: Flow, max_packets: int = RX_BURST_MAX):
        """Process: receive up to ``max_packets`` records (rte_eth_rx_burst).

        Generator so that architectures with blocking receive semantics can
        stall the caller; the common case returns immediately.
        """
        self.rx_burst_calls += 1
        records = yield from self.arch.recv_burst(flow, max_packets)
        if records:
            self.mempool.alloc(len(records))
        return records

    def tx_burst(self, count: int) -> None:
        """Transmit-side accounting (responses leave on an uncontended
        reverse path; their CPU cost is charged by the application)."""
        if count < 0:
            raise ValueError(f"tx_burst count must be non-negative: {count}")
        self.tx_packets += count

    def free(self, records: List[RxRecord]) -> None:
        """Return mbufs to the pool and descriptors to the architecture."""
        if not records:
            return
        self.arch.release(records)
        self.mempool.free(len(records))
