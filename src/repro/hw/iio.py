"""The Integrated I/O (IIO) buffer on the host uncore.

PCIe posted writes land here (stage 2 of the data path, Figure 2) and the
memory controller drains entries into the LLC or DRAM (stage 3). Its
occupancy is bounded; when full the PCIe DMA engine stalls, which is exactly
the back-pressure HostCC's congestion signal observes (§2.3).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..sim import Simulator

__all__ = ["IioBuffer", "IioEntry"]


class IioEntry:
    """One posted write resident in the IIO buffer."""

    __slots__ = ("payload", "nbytes", "enqueue_time")

    def __init__(self, payload, nbytes: int, enqueue_time: float):
        self.payload = payload
        self.nbytes = nbytes
        self.enqueue_time = enqueue_time


class IioBuffer:
    """Bounded byte-accounted FIFO between PCIe and the memory controller."""

    def __init__(self, sim: Simulator, capacity: int):
        self.sim = sim
        self.capacity = capacity
        self._entries: Deque[IioEntry] = deque()
        self._bytes = 0
        #: High-water mark of :attr:`occupancy`, bytes.
        self.peak_bytes = 0
        #: The idle memory controller's serve callback, registered by
        #: :meth:`take` on an empty buffer; the next landing calls it.
        self._waiter: Optional[Callable[[IioEntry], None]] = None
        #: Landed writes waiting for space, as ``(payload, nbytes)``.
        self._space_waiters: List[Tuple[object, int]] = []
        # Conservation occupancy (repro.audit): posted writes issued by the
        # DMA engine but not yet completed by the memory controller. The
        # DMA engine increments it atomically with ``writes_issued``;
        # :meth:`complete` decrements — so issued = inflight + completed at
        # every kernel step.
        self.inbound_inflight = 0

    @property
    def occupancy(self) -> int:
        """Bytes currently buffered (HostCC's congestion signal)."""
        return self._bytes

    @property
    def fill_fraction(self) -> float:
        return self._bytes / self.capacity

    def put(self, payload, nbytes: int) -> None:
        """Land a posted write: enqueue it now if the buffer has space,
        else park it until :meth:`complete` frees space and re-check.

        A plain callback — the DMA engine schedules it ``write_latency``
        after issue — so a landing costs one calendar entry, not a
        process. An idle memory controller is served inside the landing
        (its waiter is called with the new entry), with no wake-up entry
        of its own. Parked writes re-check in arrival order, one calendar
        entry each, when the memory controller completes an entry.
        """
        if self._bytes + nbytes > self.capacity:
            self._space_waiters.append((payload, nbytes))
            return
        self._bytes += nbytes
        if self._bytes > self.peak_bytes:
            self.peak_bytes = self._bytes
        entry = IioEntry(payload, nbytes, self.sim.now)
        waiter = self._waiter
        if waiter is None:
            self._entries.append(entry)
        else:
            self._waiter = None
            waiter(entry)

    def take(self, waiter: Callable[[IioEntry], None]) -> Optional[IioEntry]:
        """The oldest entry if one is buffered; else None, and ``waiter``
        is called with the next entry to land (memory controller side:
        take now, else register a callback).

        The entry still occupies IIO space until :meth:`complete` is called
        — the data physically leaves the buffer only once the memory
        controller has written it onward.
        """
        if self._entries:
            return self._entries.popleft()
        self._waiter = waiter
        return None

    def complete(self, entry: IioEntry) -> None:
        """Release the space held by ``entry`` (write to LLC/DRAM done)."""
        self._bytes -= entry.nbytes
        self.inbound_inflight -= 1
        if self._space_waiters:
            waiters, self._space_waiters = self._space_waiters, []
            for payload, nbytes in waiters:
                self.sim.call_later(0.0, self.put, payload, nbytes)
