"""Elastic on-NIC buffering (§4.2).

When a flow exhausts its credits, its packets are DMAed into the
SmartNIC's on-board memory instead of being dropped. This module owns that
memory's per-flow accounting and the drain machinery that later moves
buffered payloads to host memory via DMA reads.

Draining is gated on LLC headroom: a drained packet is inserted into the
DDIO partition (the DMA-read completion is a posted write to host memory,
which DDIO steers into the LLC), so the manager only fetches a batch when
the partition has room. When headroom is missing the manager *pauses the
fast path globally* — the paper's "temporarily pauses the fast path during
slow path DMAing, drains the I/O flow, and then re-enables the fast path"
(§4.1 Q2) — until application releases free space.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.stats import Counter, RateMeter
from .sw_ring import SwEntry, SwRing

__all__ = ["FlowSlowBuffer", "ElasticBufferManager"]


class FlowSlowBuffer:
    """Per-flow packet and byte counts of on-NIC memory. The records
    themselves live in the flow's SW ring, which the drain reads."""

    __slots__ = ("flow_id", "packets", "nbytes", "production", "consumption",
                 "cpu_involved", "small_messages")

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        #: Packets buffered and not yet drained.
        self.packets = 0
        self.nbytes = 0
        #: Guard-threshold class, learned from the first buffered packet.
        self.cpu_involved = True
        #: Small-message bypass traffic (e.g. echo over RDMA) is latency-
        #: sensitive and gets the shallow guard band too.
        self.small_messages = True
        self.production = RateMeter(f"slow{flow_id}.prod", window=10_000.0)
        self.consumption = RateMeter(f"slow{flow_id}.cons", window=10_000.0)

    def __len__(self) -> int:
        return self.packets


class ElasticBufferManager:
    """Owns the slow-path side: on-NIC buffers and DMA-read drains."""

    #: Per-packet descriptor/WQE handling cost of a drain, ns. Amortised
    #: by large messages — the reason the slow path only approaches the
    #: fast path beyond ~4 KB messages (Figure 11).
    DRAIN_PER_PACKET_NS = 20.0
    #: §6.4: "degraded on-NIC memory throughput due to chaotic access
    #: patterns" — with many flows holding on-NIC buffers at once, the
    #: on-board DRAM loses row-buffer locality. Effective bandwidth drops
    #: linearly to ``1 - CHAOS_PENALTY`` of nominal as the concurrently
    #: buffered flow count reaches :attr:`CHAOS_FLOWS`.
    CHAOS_PENALTY = 0.45
    CHAOS_FLOWS = 16
    #: Extra per-packet drain cost at full chaos (internal-switch DMA
    #: latency inflation), ns.
    DRAIN_CHAOS_NS = 18.0

    def __init__(self, host, config):
        self.host = host
        self.sim = host.sim
        self.config = config
        self.buffers: Dict[int, FlowSlowBuffer] = {}
        self.buffered_packets = Counter("ceio.slow_buffered")
        self.drained_packets = Counter("ceio.slow_drained")
        self.slow_drops = Counter("ceio.slow_drops")
        #: On-NIC memory exhausted on a buffer attempt. The runtime decides
        #: what happens next (spill to DRAM, or drop + ``slow_drops``) —
        #: this counter makes the overflow visible either way instead of
        #: the flow silently wedging.
        self.overflow_events = Counter("ceio.slow_overflow")
        #: True while drains are waiting on LLC headroom; the runtime routes
        #: all fast-path admissions to the slow path during this window.
        self.fast_path_paused = False
        #: Set by the runtime: callable(flow_id) invoked when drained data
        #: becomes host-resident (wakes poll_any servers).
        self.notify = None
        #: Set by the runtime: callable(packet) that sends a deferred ACK
        #: (hard backpressure past the RED band).
        self.ack_deferred = None
        #: Flows whose on-NIC buffer is currently non-empty.
        self._active_buffered = 0
        # Conservation meters (repro.audit): every buffered packet is
        # eventually removed by a drain, discarded by forget_flow, or still
        # awaiting a drain in its live flow's SW ring.
        self.audit_removed = 0
        self.forgotten_entries = 0

    def flow_buffer(self, flow_id: int) -> FlowSlowBuffer:
        buf = self.buffers.get(flow_id)
        if buf is None:
            buf = FlowSlowBuffer(flow_id)
            self.buffers[flow_id] = buf
        return buf

    def slow_bytes(self, flow_id: int) -> int:
        buf = self.buffers.get(flow_id)
        return buf.nbytes if buf else 0

    # ------------------------------------------------------------------
    # NIC-side: buffer an overflow packet
    # ------------------------------------------------------------------
    def buffer_packet(self, packet):
        """Process (firmware ctx): store packet in on-NIC memory.

        Returns True when buffered, False when on-NIC memory is exhausted —
        the caller then falls back (spill to host DRAM, or drop when the
        ``spill_to_dram`` fallback is disabled; it owns ``slow_drops``).
        """
        memory = self.host.nic.memory
        if not memory.allocate(packet.size):
            self.overflow_events.add(1)
            return False
        yield from memory.write(packet.size)
        buf = self.flow_buffer(packet.flow.flow_id)
        buf.cpu_involved = packet.flow.is_cpu_involved
        buf.small_messages = (
            packet.flow.message_payload * packet.flow.packets_per_message
            < self.config.latency_class_message_bytes)
        if buf.nbytes == 0:
            self._active_buffered += 1
            self._update_chaos()
        buf.packets += 1
        buf.nbytes += packet.size
        buf.production.record(self.sim.now, packet.size)
        self.buffered_packets.add(1)
        return True

    # ------------------------------------------------------------------
    # Host-side: drain a batch via DMA read
    # ------------------------------------------------------------------
    def _llc_headroom(self) -> int:
        llc = self.host.llc
        return llc.capacity - llc.occupancy if hasattr(llc, "capacity") else (
            self.host.config.cache.ddio_capacity - llc.occupancy)

    def drain_batch(self, swring: SwRing, entries: List[SwEntry]):
        """Process: fetch the payloads behind ``entries`` to host memory.

        ``entries`` are ``swring`` entries whose records reference packets
        held in this flow's on-NIC buffer. On completion each entry is
        marked host-resident and its LLC lines are allocated. The batch is
        split into chunks no larger than half the DDIO partition so a
        drain can always make progress regardless of cache size.
        """
        if not entries:
            return
        flow_id = swring.flow_id
        buf = self.flow_buffer(flow_id)
        for entry in entries:
            entry.fetching = True
        capacity = self.host.config.cache.ddio_capacity
        index = 0
        while index < len(entries):
            chunk = []
            total = 0
            while index < len(entries):
                size = entries[index].record.packet.size
                if chunk and total + size > capacity // 2:
                    break
                chunk.append(entries[index])
                total += size
                index += 1
            yield from self._drain_chunk(swring, buf, chunk, total)
        if self.notify is not None:
            self.notify(flow_id)

    def _drain_chunk(self, swring: SwRing, buf: FlowSlowBuffer,
                     chunk: List[SwEntry], total: int):

        # Wait for DDIO headroom; pause the fast path if we have to wait so
        # application releases can catch up (§4.1 Q2). The wait is
        # best-effort: past the deadline the drain proceeds anyway and the
        # DDIO insert simply evicts (what real hardware would do) — a drain
        # must never deadlock against buffers the application can only
        # release after this very drain completes.
        waited = False
        deadline = self.sim.now + 50_000.0
        while self._llc_headroom() < total and self.sim.now < deadline:
            self.fast_path_paused = True
            waited = True
            yield 1_000.0
        if waited:
            self.fast_path_paused = False

        per_packet = (self.DRAIN_PER_PACKET_NS
                      + self._chaos() * self.DRAIN_CHAOS_NS)
        yield len(chunk) * per_packet
        yield from self.host.nic.dma.read_from_nic(self.host.nic.memory,
                                                   total)
        now = self.sim.now
        # A crash_restart fault may have forgotten this flow's buffer while
        # the DMA read was in flight: forget_flow already freed its on-NIC
        # bytes, so an orphaned drain must not free (or account) them again.
        live = self.buffers.get(swring.flow_id) is buf
        for entry in chunk:
            packet = entry.record.packet
            self.host.llc.io_insert(entry.record.key, packet.size)
            if live:
                self.host.nic.memory.free_bytes(packet.size)
                self._drained(buf, packet.size)
                buf.consumption.record(now, packet.size)
            swring.mark_resident(entry)
            entry.fetching = False
            entry.record.deliver_time = now
            packet.delivered_time = now
            if entry.record.defer_ack and self.ack_deferred is not None:
                entry.record.defer_ack = False
                self.ack_deferred(packet)
            self.drained_packets.add(1)

    def _drained(self, buf: FlowSlowBuffer, size: int) -> None:
        """One packet of ``buf`` left on-NIC memory for the host."""
        buf.packets -= 1
        self.audit_removed += 1
        buf.nbytes = max(0, buf.nbytes - size)
        if buf.nbytes == 0:
            self._active_buffered = max(0, self._active_buffered - 1)
            self._update_chaos()

    def forget_flow(self, flow_id: int) -> int:
        """Quiesce support (repro.faults app crash): discard a departed
        flow's on-NIC buffer, freeing its memory. Returns bytes freed."""
        buf = self.buffers.pop(flow_id, None)
        if buf is None:
            return 0
        self.forgotten_entries += buf.packets
        freed = buf.nbytes
        if freed > 0:
            self.host.nic.memory.free_bytes(freed)
            self._active_buffered = max(0, self._active_buffered - 1)
            self._update_chaos()
        buf.packets = 0
        buf.nbytes = 0
        return freed

    def _chaos(self) -> float:
        return min(1.0, self._active_buffered / self.CHAOS_FLOWS)

    def _update_chaos(self) -> None:
        memory = self.host.nic.memory
        nominal = memory.config.memory_bandwidth
        memory.set_effective_bandwidth(
            nominal * (1.0 - self.CHAOS_PENALTY * self._chaos()))

    def overloaded(self, flow_id: int) -> bool:
        """True when this flow's slow path is filling faster than it drains
        (the condition under which CEIO triggers the network CCA, §4.1 Q2)."""
        buf = self.buffers.get(flow_id)
        if buf is None or buf.nbytes == 0:
            return False
        now = self.sim.now
        prod = buf.production.rate(now)
        cons = buf.consumption.rate(now)
        return prod > cons * 1.25 and buf.nbytes > self.config.cca_mark_min_bytes

    def mark_probability(self, flow_id: int) -> float:
        """RED-style ECN probability from per-flow slow-path backlog.

        Marking is gated on the §4.1 Q2 condition — the network's
        production rate exceeding the slow path's consumption rate — so a
        backlog that is already draining does not keep cutting the sender.
        """
        buf = self.buffers.get(flow_id)
        if buf is None:
            return 0.0
        if buf.cpu_involved or buf.small_messages:
            lo = self.config.cca_mark_min_bytes
            hi = self.config.cca_mark_max_bytes
        else:
            lo = self.config.cca_mark_min_bytes_bypass
            hi = self.config.cca_mark_max_bytes_bypass
        if buf.nbytes <= lo:
            return 0.0
        if buf.nbytes >= hi:
            # Above the band the sender must be pushed *below* the service
            # rate or a standing queue that peaked high would never shrink.
            return 1.0
        p = (buf.nbytes - lo) / max(1, hi - lo)
        now = self.sim.now
        if buf.production.rate(now) <= buf.consumption.rate(now):
            # Backlog already draining: mark gently so the queue keeps
            # shrinking without cutting the sender into starvation.
            return p * 0.25
        return p
