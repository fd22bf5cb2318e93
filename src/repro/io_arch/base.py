"""Common interface for receive-side I/O architectures.

An I/O architecture is the policy layer between the NIC firmware and host
software. It decides, per received packet, where the payload goes (host
LLC via DDIO, host DRAM, on-NIC memory, or dropped), delivers records to
per-flow host rings, and recycles buffers when the application releases
them. The four implementations compared in the paper:

==============  =====================================================
``legacy``      plain DDIO, per-flow rings, no control (the Baseline)
``hostcc``      reactive host congestion control (HostCC, SIGCOMM'23)
``shring``      shared fixed-size receive ring (ShRing, OSDI'23)
``ceio``        this paper — proactive credits + elastic buffering
==============  =====================================================
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from ..hw import DmaWrite, Host
from ..net.packet import Flow, Packet
from ..sim.stats import Histogram

__all__ = ["RxRecord", "FlowRx", "IOArchitecture"]

_buffer_keys = itertools.count(1)


class RxRecord:
    """One received packet as seen by host software."""

    __slots__ = ("packet", "key", "path", "deliver_time", "defer_ack")

    def __init__(self, packet: Packet, key: int, path: str = "fast"):
        self.packet = packet
        #: I/O buffer identity used for LLC residency tracking.
        self.key = key
        #: 'fast' (DDIO fast path), 'slow' (via on-NIC memory), 'host'.
        self.path = path
        self.deliver_time: float = 0.0
        #: Hard receiver backpressure: ACK withheld until the slow-path
        #: fetch completes (set past the RED guard band).
        self.defer_ack = False

    @property
    def flow(self) -> Flow:
        return self.packet.flow


class FlowRx:
    """Receiver-side per-flow state: the ring host software polls."""

    def __init__(self, flow: Flow, ring_entries: int):
        self.flow = flow
        self.ring_entries = ring_entries
        #: Delivered records awaiting the application.
        self.ring: Deque[RxRecord] = deque()
        #: Buffers owned by the I/O path right now (descriptor accounting):
        #: incremented when a DMA is issued, decremented on app release.
        self.in_use = 0
        self.delivered = 0.0
        self.dropped = 0.0
        self.duplicates = 0.0
        self.shed = 0.0
        self.processed = 0.0
        self.processed_bytes = 0.0
        self.latency = Histogram(f"{flow.name}.latency")
        #: Open-loop flows measure latency from message *submission*
        #: (set by the scenario compiler for demand-driven tenants) so
        #: sender-side queueing under overload shows in the tail.
        self.latency_from_submit = False
        # Receiver-side duplicate suppression: cumulative high-water mark
        # plus the out-of-order accepted set above it.
        self._acc_upto = -1
        self._acc_set: set = set()

    def accept(self, seq: int) -> bool:
        """Note ``seq`` as accepted; False when it already was (a
        duplicate). The next seq in order is never in the set above the
        mark, so it is tested first."""
        upto = self._acc_upto
        if seq == upto + 1:
            accepted = self._acc_set
            upto = seq
            while upto + 1 in accepted:
                upto += 1
                accepted.discard(upto)
            self._acc_upto = upto
            return True
        if seq <= upto or seq in self._acc_set:
            return False
        self._acc_set.add(seq)
        return True

    @property
    def descriptors_free(self) -> int:
        return self.ring_entries - self.in_use

    def record_processed(self, record: RxRecord, now: float) -> None:
        """Application finished a packet: throughput + latency accounting.

        Latency is measured from the packet's *first* transmission, so
        loss-recovery delay shows up in the tail where it belongs.
        """
        self.processed += 1
        self.processed_bytes += record.packet.payload
        if self.latency_from_submit and record.packet.submit_time >= 0:
            origin = record.packet.submit_time
        else:
            origin = record.packet.first_send_time
            if origin < 0:
                origin = record.packet.send_time
        self.latency.record(max(1.0, now - origin))


class IOArchitecture:
    """Base class: plain per-flow descriptor rings, DDIO on every write."""

    name = "base"

    def __init__(self, host: Host):
        self.host = host
        self.sim = host.sim
        self.flows: Dict[int, FlowRx] = {}
        #: Set by the testbed: callable(packet, extra_mark=False) that ACKs
        #: an accepted packet back to its sender.
        self.ack: Optional[Callable] = None
        #: Packets this architecture was asked to place (counted at the
        #: top of every ``on_packet`` and on MAC tail drops), balanced
        #: against accepted + dropped + shed + duplicates by the
        #: ``arch.admission`` audit account.
        self.rx_offered = 0.0
        self.rx_accepted = 0.0
        self.rx_dropped = 0.0
        #: Packets deliberately load-shed by admission control (ACKed so
        #: the sender moves on, never delivered). Zero for architectures
        #: without guardrails.
        self.rx_shed = 0.0
        # Conservation meters (repro.audit). ``_all_rx`` retains per-flow
        # state across unregister_flow so flow sums stay conserved when a
        # worker crashes mid-run (orphan deliveries still mutate it).
        self._all_rx: Dict[int, FlowRx] = {}
        self.dma_write_drops = 0.0
        self.released_records = 0.0
        self.popped_records = 0.0
        #: Packets accepted whose DMA write has not yet delivered/dropped.
        self.delivery_inflight = 0
        # Ready-flow notification queue: lets a server thread poll "any
        # flow with pending packets" in O(1) instead of sweeping thousands
        # of mostly-idle rings (the Figure 12 regime).
        self._ready_fids: Deque[int] = deque()
        self._ready_set: set = set()
        self._ready_waiters: List = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_flow(self, flow: Flow) -> FlowRx:
        if flow.flow_id in self.flows:
            return self.flows[flow.flow_id]
        rx = FlowRx(flow, self.ring_entries_for(flow))
        self.flows[flow.flow_id] = rx
        self._all_rx[flow.flow_id] = rx
        flow.rx = rx
        return rx

    def unregister_flow(self, flow: Flow) -> None:
        self.flows.pop(flow.flow_id, None)

    def ring_entries_for(self, flow: Flow) -> int:
        return self.host.config.nic.rx_ring_entries

    # ------------------------------------------------------------------
    # NIC-side hooks (run inside the firmware pipeline)
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet):
        """Default data path: take a descriptor, DMA with DDIO, deliver.

        A plain call from the NIC firmware: it returns None when the
        packet was placed (or dropped) without waiting, and otherwise
        the generator of the part that must wait — its waiting tail —
        which the firmware drives to completion before the next packet.
        """
        self.rx_offered += 1
        rx = self.flows.get(packet.flow.flow_id)
        if rx is None or rx.descriptors_free <= 0:
            self._drop(packet, rx)
            return None
        if self._dedup(packet, rx):
            return None
        return self._dma_to_host(packet, rx, ddio=True)

    def _dedup(self, packet: Packet, rx: FlowRx) -> bool:
        """Suppress a spuriously retransmitted packet (already accepted):
        re-ACK it so the sender advances, but do not deliver it twice."""
        if rx.accept(packet.seq):
            return False
        rx.duplicates += 1
        if self.ack is not None:
            self.ack(packet)
        return True

    def on_drop(self, packet: Packet) -> None:
        """MAC-buffer tail drop notification (no ACK => sender sees loss)."""
        # Counted offered: a MAC-dropped packet never reaches on_packet,
        # but it was offered to this receive stack all the same.
        self.rx_offered += 1
        rx = self.flows.get(packet.flow.flow_id)
        if rx is not None:
            rx.dropped += 1
        self.rx_dropped += 1

    # ------------------------------------------------------------------
    # Host-software-facing API (polled by the frameworks)
    # ------------------------------------------------------------------
    def rx_burst(self, flow: Flow, max_packets: int) -> List[RxRecord]:
        """Poll up to ``max_packets`` delivered records for ``flow``."""
        rx = self.flows[flow.flow_id]
        batch: List[RxRecord] = []
        while rx.ring and len(batch) < max_packets:
            batch.append(rx.ring.popleft())
        if batch:
            self.popped_records += len(batch)
        return batch

    def recv_burst(self, flow: Flow, max_packets: int):
        """Application-side receive: the records of :meth:`rx_burst`
        here. An architecture whose receive can stall the application
        (CEIO's synchronous-drain ablation) returns instead a generator
        that waits and then returns the records; callers run a result
        that is not a list (``yield from``, or :meth:`Simulator.drive`).
        """
        return self.rx_burst(flow, max_packets)

    def release(self, records: List[RxRecord]) -> None:
        """Application is done with these buffers: recycle descriptors and
        drop the dead LLC lines."""
        for record in records:
            # Fall back to the retained index so releases arriving after a
            # crash_restart unregister still balance the descriptor ledger.
            rx = self._all_rx.get(record.flow.flow_id)
            if rx is not None:
                rx.in_use -= 1
                self.released_records += 1
            self.host.llc.release(record.key)

    def app_overhead_cycles(self) -> float:
        """Extra per-packet CPU cycles this architecture imposes on apps
        (e.g. ShRing's shared-ring dispatch). Zero for most."""
        return 0.0

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def _drop(self, packet: Packet, rx: Optional[FlowRx]) -> None:
        self.rx_dropped += 1
        if rx is not None:
            rx.dropped += 1
        # No ACK: the sender's CCA discovers the loss.

    def _shed(self, packet: Packet, rx: Optional[FlowRx]) -> None:
        """Load-shed an admitted-for-decision packet: ACK it *unmarked*
        so the sender completes the message and does not retransmit (or
        back off below link rate), but never spend a descriptor, a DMA
        write, or DDIO occupancy on it. The deliberate counterpart of
        :meth:`_drop` — metered separately so offered load reconciles as
        accepted + dropped + shed + duplicates."""
        self.rx_shed += 1
        if rx is not None:
            rx.shed += 1
        if self.ack is not None:
            self.ack(packet)

    def _accept(self, packet: Packet, extra_mark: bool = False) -> None:
        self.rx_accepted += 1
        if self.ack is not None:
            self.ack(packet, extra_mark)

    def _dma_to_host(self, packet: Packet, rx: FlowRx, ddio: bool,
                     extra_mark: bool = False, path: str = "fast"):
        """Issue the DMA write and deliver a record on completion.

        Runs in the firmware pipeline: blocking on PCIe posted credits here
        back-pressures the MAC buffer, as real hardware does. Returns
        None once the write is issued (or dropped), else the waiting
        tail of :meth:`DmaEngine.write_to_host`.
        """
        rx.in_use += 1
        self.delivery_inflight += 1
        record = RxRecord(packet, next(_buffer_keys), path=path)
        self._accept(packet, extra_mark)
        write = DmaWrite(record.key, packet.size, ddio=ddio,
                         deliver=partial(self._delivered, rx, record),
                         flow_id=packet.flow.flow_id)
        tail = self.host.nic.dma.write_to_host(write)
        if write.dropped:
            # Descriptor-drop fault swallowed the write after admission:
            # the flow loses the packet (it was ACKed, so the sender will
            # not retransmit) and the descriptor leaks until release — the
            # realistic failure mode. Account the loss to the flow.
            self.delivery_inflight -= 1
            self.dma_write_drops += 1
            rx.dropped += 1
        return tail

    def _delivered(self, rx: FlowRx, record: RxRecord, now: float) -> None:
        """The DMA write of ``record`` completed at ``now``."""
        self.delivery_inflight -= 1
        record.packet.delivered_time = now
        record.deliver_time = now
        self._deliver_record(rx, record)
        rx.delivered += 1

    def _deliver_record(self, rx: FlowRx, record: RxRecord) -> None:
        """Make a completed record visible to host software. Subclasses
        with a different host-facing structure (ShRing's shared ring)
        override this."""
        rx.ring.append(record)
        self._notify_ready(rx.flow.flow_id)

    def _notify_ready(self, fid: int) -> None:
        if fid not in self._ready_set:
            self._ready_set.add(fid)
            self._ready_fids.append(fid)
        if self._ready_waiters:
            waiters, self._ready_waiters = self._ready_waiters, []
            for waiter in waiters:
                waiter.succeed()

    def wait_ready(self):
        """Event that fires on the next ready-flow notification (the
        interrupt half of a NAPI-style consumer: poll until empty, then
        block here instead of spinning)."""
        ev = self.sim.event()
        if self._ready_fids:
            ev.succeed()
        else:
            self._ready_waiters.append(ev)
        return ev

    def poll_any(self, max_packets: int) -> List[RxRecord]:
        """Return records from whichever flow is ready first (NAPI-style).

        Used by servers that multiplex many flows over few cores. Scans
        each currently-ready flow at most once per call — a flow that is
        "ready" but yields nothing yet (e.g. CEIO entries awaiting a
        slow-path fetch) must not spin the caller.
        """
        for _ in range(len(self._ready_fids)):
            fid = self._ready_fids.popleft()
            self._ready_set.discard(fid)
            rx = self.flows.get(fid)
            if rx is None:
                continue
            records = self.rx_burst(rx.flow, max_packets)
            if self._flow_still_ready(fid):
                self._notify_ready(fid)
            if records:
                return records
        return []

    def _flow_still_ready(self, fid: int) -> bool:
        rx = self.flows.get(fid)
        return rx is not None and bool(rx.ring)

    # ------------------------------------------------------------------
    # Conservation auditing (repro.audit)
    # ------------------------------------------------------------------
    def audit_register(self, ledger) -> None:
        """Register this architecture's conservation accounts on ``ledger``.

        Three balance equations every receive architecture must satisfy:
        accepted packets are delivered, in flight, or dropped by a DMA
        fault; delivered records are popped or still ringed; and accepted
        descriptors are released or still owned by the I/O path. Subclasses
        with extra structures extend this (and call ``super()``).
        """
        rxs = self._all_rx
        delivery = ledger.account("arch.delivery", "packets",
                                  barrier_safe=True)
        delivery.debit("accepted", (self, "rx_accepted"))
        delivery.credit("delivered",
                        lambda: sum(rx.delivered for rx in rxs.values()))
        delivery.credit("inflight", (self, "delivery_inflight"))
        delivery.credit("dma_write_drops", (self, "dma_write_drops"))

        rings = ledger.account("arch.app_rings", "packets", barrier_safe=True)
        rings.debit("delivered",
                    lambda: sum(rx.delivered for rx in rxs.values()))
        rings.credit("popped", (self, "popped_records"))
        rings.credit("ring_occupancy", self._audit_ring_occupancy)

        desc = ledger.account("arch.descriptors", "descriptors",
                              barrier_safe=True)
        desc.debit("accepted", (self, "rx_accepted"))
        desc.credit("released", (self, "released_records"))
        desc.credit("in_use", lambda: sum(rx.in_use for rx in rxs.values()))

        self._register_admission_account(ledger)

    def _register_admission_account(self, ledger) -> None:
        """``arch.admission``: every packet offered to the receive stack
        is accepted, dropped, deliberately shed, or a suppressed
        duplicate — the overload-guardrail balance (offered == delivered
        + shed + dropped reconciles through ``arch.delivery``). Bounded
        by the one packet that may be mid-decision inside the firmware
        handler."""
        rxs = self._all_rx
        admission = ledger.account("arch.admission", "packets",
                                   barrier_safe=True, bounded=True)
        admission.debit("offered", (self, "rx_offered"))
        admission.credit("accepted", (self, "rx_accepted"))
        admission.credit("dropped", (self, "rx_dropped"))
        admission.credit("shed", (self, "rx_shed"))
        admission.credit("duplicates",
                         lambda: sum(rx.duplicates
                                     for rx in rxs.values()))
        admission.slack("in_handler", (self.host.nic, "handler_inflight"))

    def _audit_ring_occupancy(self) -> int:
        """Delivered-but-unpopped records (shared-ring archs override)."""
        return sum(len(rx.ring) for rx in self._all_rx.values())
