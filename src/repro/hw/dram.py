"""DRAM model: channel-parallel bandwidth with queueing latency.

Accesses contend for channels; each access holds one channel for its
base latency plus ``bytes / channel_bandwidth`` ns. A windowed bandwidth
meter (read by :meth:`Dram.utilization`) is exported — memory-bandwidth
pressure is one of the two resources the paper's analysis (§2.2) says
LLC misses burn.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from ..sim import Simulator
from ..sim.stats import RateMeter
from .config import DramConfig

__all__ = ["Dram"]


class Dram:
    def __init__(self, sim: Simulator, config: DramConfig):
        self.sim = sim
        self.config = config
        #: Channels held by an access, and the accesses waiting for one
        #: in arrival order, as ``(nbytes, done, args)``.
        self._busy = 0
        self._queued: Deque[tuple] = deque()
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.bandwidth_meter = RateMeter("dram.bw", window=10_000.0)

    @property
    def peak_bandwidth(self) -> float:
        return self.config.channels * self.config.channel_bandwidth

    @property
    def effective_bandwidth(self) -> float:
        """Capacity available to random line-granule traffic."""
        return self.peak_bandwidth * self.config.random_efficiency

    def utilization(self, now: float) -> float:
        """Recent demand as a fraction of the *effective* random-access
        capacity (HostCC's "memory bandwidth usage" signal)."""
        return min(1.0,
                   self.bandwidth_meter.rate(now) / self.effective_bandwidth)

    def _service_time(self, nbytes: int) -> float:
        return self.config.base_latency + nbytes / self.config.channel_bandwidth

    def write(self, nbytes: int, done: Callable, *args) -> None:
        """Write ``nbytes``, then call ``done(*args)``: a callback access
        (the memory controller's). A free channel is granted one calendar
        entry from now; otherwise the access queues FIFO and is granted
        the channel the next finishing access releases."""
        if self._busy < self.config.channels and not self._queued:
            self._busy += 1
            self.sim.call_later(0.0, self._granted, nbytes, done, args)
        else:
            self._queued.append((nbytes, done, args))

    def _granted(self, nbytes: int, done: Callable, args: tuple) -> None:
        self.sim.call_later(self._service_time(nbytes), self._written,
                            nbytes, done, args)

    def _written(self, nbytes: int, done: Callable, args: tuple) -> None:
        if self._queued:
            # Hand the channel straight to the oldest queued access.
            self.sim.call_later(0.0, self._granted, *self._queued.popleft())
        else:
            self._busy -= 1
        self.bytes_written += nbytes
        self.bandwidth_meter.record(self.sim.now, nbytes)
        done(*args)

    def latency_estimate(self, nbytes: int, now: float) -> float:
        """Closed-form expected latency used by non-process fast paths.

        Base latency plus transfer time, inflated by current contention
        (an M/M/c-flavoured multiplier: 1 / (1 - utilization), capped).
        """
        util = self.utilization(now)
        congestion = 1.0 / max(0.05, 1.0 - util)
        transfer = nbytes / self.config.channel_bandwidth
        return (self.config.base_latency + transfer) * min(congestion, 8.0)

    def record_demand(self, now: float, nbytes: int, write: bool = False) -> None:
        """Account bandwidth for accesses modelled in closed form."""
        if write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        self.bandwidth_meter.record(now, nbytes)
