"""DRAM model: channel-parallel bandwidth with queueing latency.

Accesses contend for channels; each access occupies one channel for
``bytes / channel_bandwidth`` ns after a base latency. Aggregate bandwidth
and a time-weighted queue gauge are exported — memory-bandwidth pressure is
one of the two resources the paper's analysis (§2.2) says LLC misses burn.
"""

from __future__ import annotations

from ..sim import Resource, Simulator
from ..sim.stats import RateMeter, TimeWeightedGauge
from .config import DramConfig

__all__ = ["Dram"]


class Dram:
    def __init__(self, sim: Simulator, config: DramConfig):
        self.sim = sim
        self.config = config
        self._channels = Resource(sim, capacity=config.channels, name="dram")
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.bandwidth_meter = RateMeter("dram.bw", window=10_000.0)
        self.queue_gauge = TimeWeightedGauge("dram.queue")

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

    def _access(self, nbytes: int, write: bool):
        """Process: one DRAM access of ``nbytes``."""
        self.queue_gauge.adjust(self.sim.now, +1)
        yield self._channels.request()
        try:
            yield (self.config.base_latency
                   + nbytes / self.config.channel_bandwidth)
        finally:
            self._channels.release()
            self.queue_gauge.adjust(self.sim.now, -1)
        if write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        self.bandwidth_meter.record(self.sim.now, nbytes)

    def read(self, nbytes: int):
        """Process: read ``nbytes`` (yield from / yield sim.process(...))."""
        return self._access(nbytes, False)

    def write(self, nbytes: int):
        """Process: write ``nbytes``."""
        return self._access(nbytes, True)

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
