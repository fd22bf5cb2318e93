"""CPU core model.

A :class:`Core` offers timing helpers to application processes: pure
computation (cycles), and buffer reads whose latency depends on LLC
residency. DRAM time for misses is charged in closed form (with a
contention multiplier from current DRAM utilisation) while still recording
bandwidth demand, so CPU misses and DMA traffic see each other's pressure
without paying per-line event costs.
"""

from __future__ import annotations

from typing import Tuple

from ..sim import Simulator
from .config import CacheConfig, CpuConfig
from .dram import Dram

__all__ = ["Core", "CpuComplex"]


class Core:
    def __init__(self, sim: Simulator, index: int, config: CpuConfig,
                 cache_config: CacheConfig, llc, dram: Dram):
        self.sim = sim
        self.index = index
        self.config = config
        self.cache_config = cache_config
        self.llc = llc
        self.dram = dram
        self.busy_ns = 0.0
        self.reads = 0.0
        self.read_misses = 0.0
        #: Fault seam (repro.faults hw.cpu "slowdown"): execution-time
        #: multiplier modelling preemption by another tenant; 1.0 healthy.
        self.slowdown = 1.0

    def compute(self, cycles: float):
        """Process: execute ``cycles`` of work (yield the returned delay)."""
        duration = cycles * self.config.cycle_ns * self.slowdown
        self.busy_ns += duration
        return duration

    def read_latency(self, key, nbytes: int) -> Tuple[float, bool]:
        """Latency for this core to read an I/O buffer, and whether it missed.

        LLC hit: ``hit_latency`` (load-to-use; subsequent lines stream).
        Miss: miss penalty plus DRAM access under current contention, for
        the non-resident fraction. Partially-resident buffers pay a blend.
        """
        hit_fraction = self.llc.cpu_read(key, nbytes)
        cfg = self.cache_config
        self.reads += 1
        if hit_fraction >= 1.0:
            return cfg.hit_latency, False
        missed_bytes = max(cfg.line, int(nbytes * (1.0 - hit_fraction)))
        dram_ns = self.dram.latency_estimate(missed_bytes, self.sim.now)
        self.dram.record_demand(self.sim.now, missed_bytes)
        self.read_misses += 1
        latency = (hit_fraction * cfg.hit_latency
                   + (1.0 - hit_fraction) * cfg.miss_penalty + dram_ns)
        return latency, True

    def read_stall(self, key, nbytes: int) -> Tuple[float, bool]:
        """Charge a read of an I/O buffer: the stall in ns (hit/miss
        latency under the slowdown, added to busy time) for the caller to
        wait, and whether the read missed the LLC."""
        latency, missed = self.read_latency(key, nbytes)
        latency *= self.slowdown
        self.busy_ns += latency
        return latency, missed

    def read_buffer(self, key, nbytes: int):
        """Process: read an I/O buffer, stalling for hit/miss latency.

        Returns ``True`` if the read missed the LLC.
        """
        latency, missed = self.read_stall(key, nbytes)
        yield latency
        return missed

    def copy_stall(self, nbytes: int) -> float:
        """Charge a memcpy from the I/O buffer into an application
        buffer; returns the stall in ns for the caller to wait.

        The destination is usually cold (§6.4: LineFS suffers ~10% extra
        misses from exactly this), so the copy pays DRAM write bandwidth
        and a store-miss penalty on top of per-byte CPU work.
        """
        cfg = self.cache_config
        copy_cycles = nbytes / 16.0  # ~16 B/cycle sustained memcpy
        dram_ns = self.dram.latency_estimate(nbytes, self.sim.now) * 0.5
        self.dram.record_demand(self.sim.now, nbytes, write=True)
        latency = (copy_cycles * self.config.cycle_ns
                   + cfg.miss_penalty * 0.5 + dram_ns * 0.1) * self.slowdown
        self.busy_ns += latency
        return latency

    def copy_to_app_buffer(self, nbytes: int):
        """Process: :meth:`copy_stall`, waited."""
        yield self.copy_stall(nbytes)

    def utilization(self, now: float) -> float:
        return self.busy_ns / now if now > 0 else 0.0


class CpuComplex:
    """All cores of the receiver socket."""

    def __init__(self, sim: Simulator, config: CpuConfig,
                 cache_config: CacheConfig, llc, dram: Dram):
        self.sim = sim
        self.config = config
        self.cores = [Core(sim, i, config, cache_config, llc, dram)
                      for i in range(config.cores)]
        self._free = list(reversed(self.cores))

    def allocate(self) -> Core:
        """Dedicate a core to an I/O flow (§2.3: one core per flow)."""
        if not self._free:
            raise RuntimeError("out of CPU cores to dedicate")
        return self._free.pop()

    def release(self, core: Core) -> None:
        """Return a dedicated core to the pool."""
        if core in self._free:
            raise ValueError(f"core {core.index} is already free")
        self._free.append(core)

    def release_all(self) -> None:
        self._free = list(reversed(self.cores))
