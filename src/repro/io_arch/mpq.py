"""Multiple Priority Queues (MPQ) — the design alternative CEIO rejects.

§4.1 discusses and dismisses PIAS-style priority scheduling as the way to
keep CPU-involved flows on the fast path: tag flows with priorities that
*decay with bytes sent*, so short flows finish in high-priority queues and
long flows sink. The paper's objection: **CPU-involved flows are not
always short** (continuous RPC streams never stop sending), so they decay
into low priority just like bulk transfers, and the fast path fills with
whatever happens to be young.

This architecture implements exactly that rejected design so the ablation
benchmarks can demonstrate the objection quantitatively: it partitions the
DDIO budget between a high-priority (fast DDIO) class and a low-priority
(DRAM-bound) class, demoting flows PIAS-style once their byte count
crosses per-level thresholds, with periodic aging resets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..hw import Host
from ..net.packet import Packet
from ..sim.units import MS
from .base import IOArchitecture

__all__ = ["MpqConfig", "MpqArch"]


@dataclass
class MpqConfig:
    """PIAS-style demotion thresholds, in bytes sent by the flow."""

    #: Bytes a flow may send before dropping out of each priority level.
    thresholds: List[int] = field(
        default_factory=lambda: [100 * 1024, 1024 * 1024])
    #: Period after which per-flow byte counters reset (priority aging), ns.
    aging_period: float = 1 * MS
    #: Fraction of the DDIO buffer budget reserved for the highest class.
    high_budget_fraction: float = 0.75


class MpqArch(IOArchitecture):
    """Priority-decay receive path: young flows get DDIO, old flows DRAM."""

    name = "mpq"

    def __init__(self, host: Host, config: MpqConfig = None):
        super().__init__(host)
        self.config = config or MpqConfig()
        self._bytes_sent: Dict[int, int] = {}
        self._high_in_use = 0
        self.demotions = 0.0
        self.high_packets = 0.0
        self.low_packets = 0.0
        # Conservation meter (repro.audit): high-class slot recycles.
        self.high_released = 0.0
        self._aging_proc = self.sim.process(self._aging_loop(),
                                            name="mpq-aging")

    # ------------------------------------------------------------------
    def priority(self, flow_id: int) -> int:
        """0 = highest. Decays as the flow's byte count crosses thresholds."""
        sent = self._bytes_sent.get(flow_id, 0)
        level = 0
        for threshold in self.config.thresholds:
            if sent < threshold:
                break
            level += 1
        return level

    @property
    def high_budget(self) -> int:
        return int(self.host.total_credits
                   * self.config.high_budget_fraction)

    def on_packet(self, packet: Packet):
        self.rx_offered += 1
        fid = packet.flow.flow_id
        rx = self.flows.get(fid)
        if rx is None or rx.descriptors_free <= 0:
            self._drop(packet, rx)
            return
        if self._dedup(packet, rx):
            return
        before = self.priority(fid)
        self._bytes_sent[fid] = self._bytes_sent.get(fid, 0) + packet.size
        if self.priority(fid) > before:
            self.demotions += 1
        if before == 0 and self._high_in_use < self.high_budget:
            # Highest class: DDIO fast path.
            self._high_in_use += 1
            self.high_packets += 1
            yield from self._dma_to_host(packet, rx, ddio=True, path="fast")
        else:
            # Decayed (or budget-full): DRAM-bound low-priority path.
            self.low_packets += 1
            yield from self._dma_to_host(packet, rx, ddio=False, path="low")

    def release(self, records) -> None:
        for record in records:
            if record.path == "fast" and self._high_in_use > 0:
                self._high_in_use -= 1
                self.high_released += 1
        super().release(records)

    def audit_register(self, ledger) -> None:
        super().audit_register(ledger)
        high = ledger.account("mpq.high_slots", "descriptors",
                              barrier_safe=True)
        high.debit("admitted", (self, "high_packets"))
        high.credit("released", (self, "high_released"))
        high.credit("in_use", (self, "_high_in_use"))

    def high_fraction(self) -> float:
        total = self.high_packets + self.low_packets
        return self.high_packets / total if total else 0.0

    def _aging_loop(self):
        while True:
            yield self.config.aging_period
            self._bytes_sent.clear()
