"""Last-level cache models with a DDIO way partition.

Two interchangeable models are provided behind one interface:

- :class:`FullyAssociativeLLC` — tracks I/O-buffer residency as a single LRU
  over the DDIO partition's byte capacity. Fast; the default for end-to-end
  experiments.
- :class:`SetAssociativeLLC` — a real set/way structure with per-set LRU and
  a way mask for DDIO allocations. Slower; used in unit tests and the cache
  fidelity ablation.

Both model the behaviour that drives the paper's results: **DDIO writes
allocate into a bounded region, and once in-flight I/O data exceeds that
region, newer packets evict older ones before the CPU reads them**, turning
CPU reads into DRAM misses (§2.2).

Keys are opaque buffer identifiers (one per I/O buffer); partial residency
is expressed as a hit *fraction* so callers can charge miss latency for the
evicted portion only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from .config import CacheConfig

__all__ = ["CacheStats", "FullyAssociativeLLC", "SetAssociativeLLC",
           "build_llc"]


@dataclass
class CacheStats:
    """Line-granularity accounting shared by both models."""

    io_lines_inserted: int = 0
    io_lines_evicted: int = 0
    cpu_lines_read: int = 0
    cpu_lines_hit: int = 0
    cpu_lines_missed: int = 0

    @property
    def miss_rate(self) -> float:
        """CPU read miss rate over lines (the paper's 'LLC miss rate')."""
        if self.cpu_lines_read == 0:
            return 0.0
        return self.cpu_lines_missed / self.cpu_lines_read

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate if self.cpu_lines_read else 0.0


class FullyAssociativeLLC:
    """LRU over the DDIO partition, buffer-granularity, byte-accounted.

    A buffer inserted by I/O is fully resident until LRU pressure evicts it.
    Eviction is partial-at-the-margin: the model evicts whole buffers (the
    realistic DDIO behaviour is line-wise, but whole-buffer eviction is the
    common case because a buffer's lines are inserted back-to-back and age
    together).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self.capacity = config.ddio_capacity
        self._resident: "OrderedDict[Hashable, int]" = OrderedDict()
        self._bytes = 0
        # Conservation meters (repro.audit), byte-granularity so they close
        # exactly: inserted = evicted + released + overwritten + flushed +
        # occupancy. (The line-granularity ``stats`` fields round per
        # aggregate and cannot balance.)
        self.audit_inserted_bytes = 0
        self.audit_evicted_bytes = 0
        self.audit_released_bytes = 0
        self.audit_overwritten_bytes = 0
        self.audit_flushed_bytes = 0

    # -- inspection -------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Bytes of I/O data currently resident in the DDIO partition."""
        return self._bytes

    def is_resident(self, key: Hashable) -> bool:
        return key in self._resident

    def _lines(self, nbytes: int) -> int:
        line = self.config.line
        return (nbytes + line - 1) // line

    # -- I/O side ----------------------------------------------------------
    def io_insert(self, key: Hashable, nbytes: int) -> int:
        """A DDIO write of ``nbytes`` under ``key``; returns bytes evicted.

        Evicted bytes belong to the *oldest* resident buffers — precisely
        the "subsequent packets overwrite earlier ones" failure mode.
        """
        if nbytes <= 0:
            raise ValueError("io_insert needs a positive size")
        if key in self._resident:
            old = self._resident.pop(key)
            self._bytes -= old
            self.audit_overwritten_bytes += old
        evicted = 0
        while self._bytes + nbytes > self.capacity and self._resident:
            _victim, vbytes = self._resident.popitem(last=False)
            self._bytes -= vbytes
            evicted += vbytes
        self._resident[key] = nbytes
        self._bytes += nbytes
        self.audit_inserted_bytes += nbytes
        self.audit_evicted_bytes += evicted
        line = self.config.line
        stats = self.stats
        stats.io_lines_inserted += (nbytes + line - 1) // line
        if evicted:
            stats.io_lines_evicted += (evicted + line - 1) // line
        return evicted

    # -- CPU side ----------------------------------------------------------
    def cpu_read(self, key: Hashable, nbytes: int) -> float:
        """CPU reads the buffer; returns the hit fraction in [0, 1].

        A hit refreshes recency. A miss means the data must come from DRAM
        (the caller charges latency and DRAM bandwidth); the read data is
        *not* re-inserted into the DDIO partition (DDIO only applies to
        device writes; demand fills go to the core-private portion which we
        fold into the app's base cost).
        """
        lines = self._lines(nbytes)
        self.stats.cpu_lines_read += lines
        if key in self._resident:
            self._resident.move_to_end(key)
            self.stats.cpu_lines_hit += lines
            return 1.0
        self.stats.cpu_lines_missed += lines
        return 0.0

    def release(self, key: Hashable) -> None:
        """Buffer freed by the app: its lines are dead, drop them."""
        nbytes = self._resident.pop(key, None)
        if nbytes is not None:
            self._bytes -= nbytes
            self.audit_released_bytes += nbytes

    def set_ddio_capacity(self, capacity: int) -> None:
        """Fault seam (hw.cache "ddio_reconfig"): resize the DDIO
        partition at runtime, evicting oldest buffers that no longer fit."""
        self.capacity = max(int(capacity), self.config.line)
        evicted = 0
        while self._bytes > self.capacity and self._resident:
            _victim, vbytes = self._resident.popitem(last=False)
            self._bytes -= vbytes
            evicted += vbytes
        if evicted:
            self.audit_evicted_bytes += evicted
            self.stats.io_lines_evicted += self._lines(evicted)

    def flush(self) -> None:
        self.audit_flushed_bytes += self._bytes
        self._resident.clear()
        self._bytes = 0


class SetAssociativeLLC:
    """Set-associative LLC with a DDIO way mask and per-set LRU.

    Buffers are assigned synthetic physical addresses by an internal bump
    allocator (2 KB aligned), and each line maps to set ``(addr//line) %
    sets``. I/O writes may allocate only into the first ``ddio_ways`` ways
    of each set, matching Intel DDIO's way restriction; CPU-side demand
    fills are not modelled (see :class:`FullyAssociativeLLC` docstring).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self.sets = config.sets
        self.ddio_ways = config.ddio_ways
        # Per set: OrderedDict mapping line-tag -> owning buffer key (LRU order).
        self._set_lru: List["OrderedDict[int, Hashable]"] = [
            OrderedDict() for _ in range(self.sets)]
        # Per buffer key: (base_addr, nbytes, set of resident line addrs).
        self._buffers: Dict[Hashable, Tuple[int, int, set]] = {}
        self._next_addr = 0
        # Conservation meters (repro.audit), line-granularity (this model
        # is exactly line-wise): inserted = evicted + released + flushed +
        # resident lines.
        self.audit_released_lines = 0
        self.audit_flushed_lines = 0

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._set_lru) * self.config.line

    def is_resident(self, key: Hashable) -> bool:
        entry = self._buffers.get(key)
        return bool(entry and entry[2])

    def _alloc_addr(self, nbytes: int) -> int:
        align = 2048
        addr = self._next_addr
        self._next_addr += (nbytes + align - 1) // align * align
        return addr

    def _line_addrs(self, base: int, nbytes: int):
        line = self.config.line
        first = base // line
        count = (nbytes + line - 1) // line
        return range(first, first + count)

    def io_insert(self, key: Hashable, nbytes: int) -> int:
        if nbytes <= 0:
            raise ValueError("io_insert needs a positive size")
        if key in self._buffers:
            self.release(key)
        base = self._alloc_addr(nbytes)
        resident = set()
        evicted_lines = 0
        for laddr in self._line_addrs(base, nbytes):
            lru = self._set_lru[laddr % self.sets]
            if len(lru) >= self.ddio_ways:
                victim_line, victim_key = next(iter(lru.items()))
                del lru[victim_line]
                ventry = self._buffers.get(victim_key)
                if ventry is not None:
                    ventry[2].discard(victim_line)
                evicted_lines += 1
            lru[laddr] = key
            resident.add(laddr)
        self._buffers[key] = (base, nbytes, resident)
        total = len(resident)
        self.stats.io_lines_inserted += total
        self.stats.io_lines_evicted += evicted_lines
        return evicted_lines * self.config.line

    def cpu_read(self, key: Hashable, nbytes: int) -> float:
        entry = self._buffers.get(key)
        line = self.config.line
        lines = (nbytes + line - 1) // line
        self.stats.cpu_lines_read += lines
        if entry is None:
            self.stats.cpu_lines_missed += lines
            return 0.0
        base, size, resident = entry
        wanted = list(self._line_addrs(base, min(nbytes, size)))
        hits = 0
        for laddr in wanted:
            if laddr in resident:
                hits += 1
                lru = self._set_lru[laddr % self.sets]
                lru.move_to_end(laddr)
        # Lines beyond the buffer size (padding) count as misses, as does
        # any read past a buffer that was never inserted.
        misses = lines - hits
        self.stats.cpu_lines_hit += hits
        self.stats.cpu_lines_missed += misses
        return hits / lines if lines else 0.0

    def release(self, key: Hashable) -> None:
        entry = self._buffers.pop(key, None)
        if entry is None:
            return
        _base, _size, resident = entry
        self.audit_released_lines += len(resident)
        for laddr in resident:
            self._set_lru[laddr % self.sets].pop(laddr, None)

    def set_ddio_ways(self, ways: int) -> None:
        """Fault seam (hw.cache "ddio_reconfig"): change the DDIO way
        mask at runtime, evicting LRU lines past the new limit per set."""
        self.ddio_ways = max(1, int(ways))
        evicted = 0
        for lru in self._set_lru:
            while len(lru) > self.ddio_ways:
                victim_line, victim_key = next(iter(lru.items()))
                del lru[victim_line]
                ventry = self._buffers.get(victim_key)
                if ventry is not None:
                    ventry[2].discard(victim_line)
                evicted += 1
        if evicted:
            self.stats.io_lines_evicted += evicted

    def flush(self) -> None:
        self.audit_flushed_lines += sum(len(lru) for lru in self._set_lru)
        for lru in self._set_lru:
            lru.clear()
        self._buffers.clear()


def build_llc(config: CacheConfig):
    """Instantiate the cache model selected by ``config.set_associative``."""
    if config.set_associative:
        return SetAssociativeLLC(config)
    return FullyAssociativeLLC(config)
