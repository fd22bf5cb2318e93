"""DCTCP congestion control (Alizadeh et al., SIGCOMM 2010).

The paper's testbed uses DCTCP as the network CCA under every I/O
architecture (§2.3), and two of the three baselines *depend* on it: ShRing
relies on CCA reactions to avoid overflowing its fixed ring, and HostCC
"triggers existing network CCAs when host congestion is detected".

This is a window-based sender with:

- ECN-fraction window adaptation: ``alpha = (1-g) alpha + g F`` per window,
  multiplicative decrease ``cwnd *= 1 - alpha/2`` on marked windows,
  additive increase otherwise;
- duplicate-ACK fast retransmit (selective per-packet ACKs);
- a retransmission-timeout fallback that collapses the window.

ACK generation lives at the receiver wiring (:mod:`repro.net.fabric`): the
receiver I/O architecture ACKs each packet it *accepts*, echoing both
switch CE marks and any host-side marks the architecture added.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..sim import Simulator
from ..sim.units import US
from .packet import Flow, Message, Packet

__all__ = ["DctcpConfig", "DctcpSender"]


@dataclass
class DctcpConfig:
    """Windows are in **bytes** (like real TCP): packet-counted windows
    would hand a bulk flow with MTU packets ~6x the bandwidth of an RPC
    flow with 144 B packets, inverting the fair-share behaviour the mixed
    experiments depend on."""

    init_cwnd: float = 16 * 1500.0
    min_cwnd: float = 2048.0
    #: Receive-window cap: ~4x the fabric BDP (25 B/ns x ~1.2 µs); a cap
    #: far above the BDP lets slow-start overshoot park enormous standing
    #: queues in the receiver.
    max_cwnd: float = 64 * 1500.0
    #: EWMA gain for the marked fraction (the DCTCP paper's g).
    g: float = 1.0 / 16.0
    #: Bytes added per unmarked window (additive increase: one MSS).
    additive_increase: float = 1500.0
    #: Retransmission timeout, ns.
    rto: float = 200 * US
    #: Initial RTT estimate, ns.
    rtt_init: float = 10 * US
    dupack_threshold: int = 3


class DctcpSender:
    """Per-flow DCTCP transport feeding packets into an egress callable."""

    def __init__(self, sim: Simulator, flow: Flow,
                 egress: Callable[[Packet], None],
                 config: Optional[DctcpConfig] = None):
        self.sim = sim
        self.flow = flow
        self.egress = egress
        self.config = config or DctcpConfig()
        flow.sender = self

        self.cwnd = self.config.init_cwnd
        self.ssthresh = self.config.max_cwnd
        self.alpha = 0.0
        self.srtt = self.config.rtt_init
        self.rttvar = self.config.rtt_init / 2
        self.next_seq = 0
        #: seq -> (packet, last-send-time); insertion order = seq order.
        self.inflight: "OrderedDict[int, tuple]" = OrderedDict()
        self.inflight_bytes = 0
        self._pending: deque = deque()
        self._dup_counts: Dict[int, int] = {}
        # Per-RTT window ECN accounting (time-based: seq-based windows
        # stall during loss recovery when only old sequences are ACKed).
        self._window_start = 0.0
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._in_recovery = False
        # Message completion tracking (sender-side, i.e. all packets ACKed).
        self._msg_remaining: Dict[int, int] = {}
        self._msg_events: Dict[int, object] = {}
        self._msg_objects: Dict[int, Message] = {}

        self.packets_sent = 0.0
        self.packets_acked = 0.0
        self.retransmits = 0.0
        self.timeouts = 0.0
        self._rto_proc = sim.process(self._rto_loop(),
                                     name=f"{flow.name}-rto")

    # ------------------------------------------------------------------
    # Application side
    # ------------------------------------------------------------------
    def submit_message(self, message: Message):
        """Queue a message; returns an event fired when fully ACKed."""
        message.submit_time = self.sim.now
        done = self.sim.event()
        self._msg_remaining[message.message_id] = message.count
        self._msg_events[message.message_id] = done
        self._msg_objects[message.message_id] = message
        for packet in message.packets(self.flow, self.next_seq):
            self._pending.append(packet)
            self.next_seq += 1
        self._pump()
        return done

    @property
    def backlog(self) -> int:
        """Packets queued but not yet transmitted."""
        return len(self._pending)

    @property
    def rate_estimate(self) -> float:
        """Instantaneous window-based rate estimate, bytes/ns."""
        return self.cwnd / max(self.srtt, 1.0)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        while self._pending:
            size = self._pending[0].size
            # Always allow one packet in flight, else a window smaller than
            # one frame would stall forever.
            if self.inflight and self.inflight_bytes + size > self.cwnd:
                break
            self._transmit(self._pending.popleft())

    def _transmit(self, packet: Packet) -> None:
        packet.send_time = self.sim.now
        if packet.first_send_time < 0:
            packet.first_send_time = self.sim.now
        packet.ecn_marked = False  # cleared on (re)transmit; set by the path
        if packet.seq not in self.inflight:
            self.inflight_bytes += packet.size
        self.inflight[packet.seq] = (packet, self.sim.now)
        self.inflight.move_to_end(packet.seq)
        self.packets_sent += 1
        self.egress(packet)

    def _retransmit(self, seq: int) -> None:
        entry = self.inflight.get(seq)
        if entry is None:
            return
        packet, _sent = entry
        # Clone instead of mutating: the original copy may still be in a
        # network queue (spurious retransmit), and post-egress packets
        # are immutable from the sender's side (see Packet.clone).
        packet = packet.clone()
        packet.retransmitted = True
        self.retransmits += 1
        self._dup_counts.pop(seq, None)
        self._transmit(packet)

    # ------------------------------------------------------------------
    # ACK path (called by the receiver wiring)
    # ------------------------------------------------------------------
    def on_ack(self, seq: int, ecn_marked: bool) -> None:
        entry = self.inflight.pop(seq, None)
        if entry is None:
            return  # duplicate/stale ACK
        packet, sent_time = entry
        self.inflight_bytes = max(0, self.inflight_bytes - packet.size)
        self.packets_acked += 1
        self._dup_counts.pop(seq, None)

        rtt_sample = self.sim.now - sent_time
        self.rttvar = (0.75 * self.rttvar
                       + 0.25 * abs(rtt_sample - self.srtt))
        self.srtt = 0.875 * self.srtt + 0.125 * rtt_sample

        self._acked_in_window += 1
        if ecn_marked:
            self._marked_in_window += 1

        # Selective-ACK style loss inference: an ACK for seq implies any
        # still-inflight packet with a smaller seq was likely lost.
        self._count_dupacks(seq)

        if self.sim.now - self._window_start >= self.srtt:
            self._end_window()

        self._complete_message_packet(packet)
        self._pump()

    def _count_dupacks(self, acked_seq: int) -> None:
        if not self.inflight:
            return
        # Fast path: in-order delivery (no smaller seq outstanding).
        if min(self.inflight) >= acked_seq:
            return
        to_retx = []
        for seq in self.inflight:
            if seq >= acked_seq:
                continue
            count = self._dup_counts.get(seq, 0) + 1
            self._dup_counts[seq] = count
            if count == self.config.dupack_threshold and not self._in_recovery:
                to_retx.append(seq)
        if to_retx:
            self._in_recovery = True
            self.cwnd = max(self.config.min_cwnd, self.cwnd / 2)
            self.ssthresh = max(self.config.min_cwnd, self.cwnd)
            for seq in to_retx:
                self._retransmit(seq)

    def _end_window(self) -> None:
        acked = max(1, self._acked_in_window)
        fraction = self._marked_in_window / acked
        self.alpha = ((1 - self.config.g) * self.alpha
                      + self.config.g * fraction)
        if self._marked_in_window > 0:
            self.cwnd = max(self.config.min_cwnd,
                            self.cwnd * (1 - self.alpha / 2))
            self.ssthresh = max(self.config.min_cwnd, self.cwnd)
        elif self.cwnd < self.ssthresh:
            # Slow start: double per window until the threshold.
            self.cwnd = min(self.ssthresh, self.config.max_cwnd,
                            self.cwnd * 2)
        else:
            self.cwnd = min(self.config.max_cwnd,
                            self.cwnd + self.config.additive_increase)
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._window_start = self.sim.now
        self._in_recovery = False

    def _complete_message_packet(self, packet: Packet) -> None:
        mid = packet.message_id
        remaining = self._msg_remaining.get(mid)
        if remaining is None:
            return
        remaining -= 1
        if remaining > 0:
            self._msg_remaining[mid] = remaining
            return
        del self._msg_remaining[mid]
        message = self._msg_objects.pop(mid)
        message.complete_time = self.sim.now
        self._msg_events.pop(mid).succeed(message)

    # ------------------------------------------------------------------
    # Timeout fallback
    # ------------------------------------------------------------------
    @property
    def rto(self) -> float:
        """Adaptive retransmission timeout (RFC 6298 style): a receiver
        that legitimately withholds ACKs (CEIO's hard backpressure, slow
        storage paths) inflates the RTT estimate and the RTO backs off with
        it instead of firing spuriously."""
        return max(self.config.rto, self.srtt + 4 * self.rttvar)

    def _rto_loop(self):
        while True:
            yield max(self.config.rto / 2, self.rto / 4)
            if not self.inflight:
                continue
            oldest_seq, (packet, sent_time) = next(iter(self.inflight.items()))
            if self.sim.now - sent_time >= self.rto:
                self.timeouts += 1
                self.ssthresh = max(self.config.min_cwnd, self.cwnd / 2)
                self.cwnd = self.config.min_cwnd
                self.alpha = min(1.0, self.alpha + 0.5)
                # Go-back-N: everything in flight at RTO is presumed lost.
                # Retransmit the oldest now and requeue the rest at the
                # front of the pending queue; slow start re-sends them as
                # ACKs return (one-at-a-time RTO recovery would crawl).
                requeue = [pkt for seq2, (pkt, _t) in self.inflight.items()
                           if seq2 != oldest_seq]
                clones = []
                for pkt in requeue:
                    del self.inflight[pkt.seq]
                    self.inflight_bytes = max(
                        0, self.inflight_bytes - pkt.size)
                    self._dup_counts.pop(pkt.seq, None)
                    # Requeue a clone: the presumed-lost copy may in fact
                    # still arrive, and must keep its original fields.
                    twin = pkt.clone()
                    twin.retransmitted = True
                    clones.append(twin)
                for pkt in sorted(clones, key=lambda p: p.seq,
                                  reverse=True):
                    self._pending.appendleft(pkt)
                self._retransmit(oldest_seq)
