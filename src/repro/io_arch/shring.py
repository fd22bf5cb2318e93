"""ShRing (Pismenny et al., OSDI 2023): a shared, fixed-size receive ring.

All flows share one receive ring whose entry count is fixed *below* the
LLC capacity, so in-flight I/O data can never overflow the DDIO partition
and LLC misses are (almost) eliminated. Two costs reproduced here (§2.3):

- **fixed capacity** — when the shared ring fills, packets must not be
  admitted. ShRing leans on the network CCA to prevent the resulting
  drops: we mark ECN once occupancy crosses a guard threshold, and drop
  outright at 100%. Either way the *network* ingress rate is cut even
  when the LLC itself could have absorbed more (e.g. when newly-arrived
  bypass flows eat ring entries that CPU-involved flows needed);
- **shared-ring dispatch** — applications polling a shared ring pay extra
  per-packet work to skip other flows' entries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List

from ..hw import Host
from ..net.packet import Flow, Packet
from .base import IOArchitecture, RxRecord

__all__ = ["ShringConfig", "ShringArch"]


@dataclass
class ShringConfig:
    #: Shared receive-ring entries (the paper's eval fixes 4096, below the
    #: 12 MB LLC: 4096 x 2 KB = 8 MB).
    ring_entries: int = 4096
    #: Occupancy fraction at which ECN marking starts; marking probability
    #: ramps linearly from the guard to 1.0 at a full ring. ``>= 1.0``
    #: disables marking entirely — the faithful ShRing behaviour, where a
    #: full ring *drops* and the network CCA reacts to loss (the paper's
    #: "frequently trigger CCAs to prevent packet loss" critique). The
    #: gentler ECN variant is kept for the ablation benchmarks.
    #: Default 0.6: marking engages near overflow, so transient bursts
    #: still overflow and drop — throughput holds statically while
    #: drop-recovery episodes inflate the tail (Table 2's ShRing column).
    ecn_guard: float = 0.6
    #: Extra per-packet CPU cycles for shared-ring dispatch.
    dispatch_cycles: float = 40.0


class ShringArch(IOArchitecture):
    name = "shring"

    def __init__(self, host: Host, config: ShringConfig = None):
        super().__init__(host)
        self.config = config or ShringConfig()
        self._shared_in_use = 0
        #: The shared ring proper: delivered records in arrival order,
        #: consumable by ANY core (that is the point of ShRing — cores
        #: drain a common ring, paying a per-packet dispatch cost).
        self._shared_ring = deque()
        #: Guard-band marking streams off the seeded registry (was one
        #: fixed-seed Random that ignored ``--seed``). Per *flow*: a
        #: shared stream correlates the mark decisions of concurrent
        #: flows, and one unlucky draw window then marks every sender at
        #: once — a synchronized CCA backoff the real ShRing (independent
        #: per-packet coin flips at distinct NIC queues) does not exhibit.
        #: Streams are keyed by registration ordinal, not flow_id: the
        #: global flow-id counter depends on what ran earlier in the
        #: process, and the draws must not.
        self._guard_rng = host.rng
        self._guard_streams: dict = {}
        self.ring_full_drops = 0.0
        self.guard_marks = 0.0
        # Conservation meters (repro.audit): every admitted shared-ring
        # slot is either released or still in use — a slot that is neither
        # has leaked (the descriptor_drop chaos narrative).
        self.shared_admitted = 0.0
        self.shared_released = 0.0

    @property
    def shared_in_use(self) -> int:
        return self._shared_in_use

    @property
    def shared_free(self) -> int:
        return self.config.ring_entries - self._shared_in_use

    def ring_entries_for(self, flow: Flow) -> int:
        # Per-flow accounting is unconstrained; the shared ring is the bound.
        return self.config.ring_entries

    def register_flow(self, flow: Flow):
        rx = super().register_flow(flow)
        if flow.flow_id not in self._guard_streams:
            ordinal = len(self._guard_streams)
            self._guard_streams[flow.flow_id] = self._guard_rng.stream(  # repro: noqa=D109 -- per-flow guard streams; name derives from the deterministic registration ordinal
                f"shring.guard.{ordinal}")
        return rx

    def app_overhead_cycles(self) -> float:
        return self.config.dispatch_cycles

    def on_packet(self, packet: Packet):
        self.rx_offered += 1
        rx = self.flows.get(packet.flow.flow_id)
        if rx is None or self.shared_free <= 0:
            self.ring_full_drops += 1
            self._drop(packet, rx)
            return
        if self._dedup(packet, rx):
            return
        self._shared_in_use += 1
        self.shared_admitted += 1
        guard = self._guard_mark(packet.flow.flow_id)
        if guard:
            self.guard_marks += 1
        yield from self._dma_to_host(packet, rx, ddio=True, extra_mark=guard)

    def _deliver_record(self, rx, record: RxRecord) -> None:
        self._shared_ring.append(record)
        self._notify_ready(record.flow.flow_id)

    def _flow_still_ready(self, fid: int) -> bool:
        return bool(self._shared_ring)

    def rx_burst(self, flow: Flow, max_packets: int) -> List[RxRecord]:
        """Any core takes the oldest records regardless of flow."""
        batch: List[RxRecord] = []
        while self._shared_ring and len(batch) < max_packets:
            batch.append(self._shared_ring.popleft())
        if batch:
            self.popped_records += len(batch)
        return batch

    def _guard_mark(self, flow_id: int) -> bool:
        """Probabilistic ECN: ramps from 0 at the guard level to 1 at full."""
        g = self.config.ecn_guard
        if g >= 1.0:
            return False
        fill = self._shared_in_use / self.config.ring_entries
        if fill <= g:
            return False
        return self._guard_streams[flow_id].random() < (fill - g) / (1.0 - g)

    def release(self, records) -> None:
        super().release(records)
        self._shared_in_use -= len(records)
        if records:
            self.shared_released += len(records)

    def _audit_ring_occupancy(self) -> int:
        return len(self._shared_ring)

    def audit_register(self, ledger) -> None:
        super().audit_register(ledger)
        shared = ledger.account("shring.shared_slots", "descriptors",
                                barrier_safe=True)
        shared.debit("admitted", (self, "shared_admitted"))
        shared.credit("released", (self, "shared_released"))
        shared.credit("in_use", (self, "_shared_in_use"))
