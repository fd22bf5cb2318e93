"""ECN-marking switch egress port.

The testbed fabric is client NIC -> switch -> server NIC at 200 Gbps. The
switch egress port toward the server is the only contended queue; it does
standard DCTCP-style ECN marking (mark when the instantaneous queue exceeds
K) and tail-drops when its buffer is full.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from ..sim import Simulator

__all__ = ["SwitchPort"]


def _trace_drop(tracer, link_name: str, kind: str, packet) -> None:
    """Attribute a dropped packet to its cause ("tail" for buffer
    overflow, else the injecting fault's kind) so chaos experiments and
    ``Tracer.dump()`` can tell congestion loss from injected loss."""
    if tracer is not None:
        tracer.emit("link.drop", link=link_name, kind=kind,
                    flow=packet.flow.flow_id, seq=packet.seq)


class SwitchPort:
    """Shared egress queue with ECN marking and tail drop.

    ``ecn_threshold`` is DCTCP's K in bytes; packets enqueued while the
    queue exceeds K are CE-marked. The buffer is finite: overflowing
    packets are dropped (the sender discovers this via duplicate ACKs or
    retransmission timeout).

    The egress is a callback state machine: ``_next`` starts serialising
    the head packet, ``_tx_done`` puts it on the wire and takes the next,
    and a packet sent to an idle port schedules ``_next`` at the current
    time.
    """

    def __init__(self, sim: Simulator, rate: float, propagation: float,
                 deliver: Callable, buffer_bytes: int = 1_000_000,
                 ecn_threshold: int = 200_000, name: str = "swport"):
        if rate <= 0:
            raise ValueError("link rate must be positive")
        self.sim = sim
        self.rate = rate
        self.propagation = propagation
        self.deliver = deliver
        self.buffer_bytes = buffer_bytes
        self.ecn_threshold = ecn_threshold
        self.name = name
        self._queue: Deque = deque()
        #: True while a packet is serialising or a wake-up is scheduled
        #: (and until the start-up entry below has run).
        self._busy = True
        self._queued_bytes = 0
        #: High-water mark of :attr:`queued_bytes`.
        self.peak_queued_bytes = 0
        self.rx_offered = 0.0
        self.tx_packets = 0.0
        self.marked_packets = 0.0
        self.dropped_packets = 0.0
        # Conservation occupancy (repro.audit): packets queued or in
        # serialisation, and packets on the wire (tx'd, not yet delivered).
        self.queued_packets = 0
        self.wire_inflight = 0
        # Bind once so per-packet scheduling loads an instance attribute
        # instead of allocating a bound method.
        self._wire_arrive = self._wire_arrive  # type: ignore[misc]
        #: How a transmitted packet gets onto the wire. The default
        #: schedules local arrival; repro.shard replaces it on boundary
        #: (cut-link) egresses with a channel emitter that consumes the
        #: same one sequence number and ships the packet cross-shard.
        self._wire_send = self._wire_schedule
        # Fault seam (repro.faults net.link): callable(packet) -> drop-kind
        # string or None; installed only while a fault window is open.
        self.fault = None
        self.fault_dropped = 0.0
        #: Optional Tracer; every drop emits a "link.drop" event through it.
        self.tracer = None
        sim.call_later(0.0, self._next)

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def send(self, packet) -> None:
        self.rx_offered += 1
        if self.fault is not None:
            kind = self.fault(packet)
            if kind is not None:
                self.fault_dropped += 1
                _trace_drop(self.tracer, self.name, kind, packet)
                return
        if self._queued_bytes + packet.size > self.buffer_bytes:
            self.dropped_packets += 1
            _trace_drop(self.tracer, self.name, "tail", packet)
            return
        if self._queued_bytes > self.ecn_threshold:
            packet.ecn_marked = True
            self.marked_packets += 1
        self._queued_bytes += packet.size
        if self._queued_bytes > self.peak_queued_bytes:
            self.peak_queued_bytes = self._queued_bytes
        self.queued_packets += 1
        self._queue.append(packet)
        if not self._busy:
            self._busy = True
            self.sim.call_later(0.0, self._next)

    def _next(self) -> None:
        """Serialise the head packet, or go idle on an empty queue."""
        if self._queue:
            packet = self._queue.popleft()
            self.sim.call_later(packet.size / self.rate, self._tx_done, packet)
        else:
            self._busy = False

    def _tx_done(self, packet) -> None:
        self._queued_bytes -= packet.size
        self.queued_packets -= 1
        self.tx_packets += 1
        self.wire_inflight += 1
        self._wire_send(packet)
        # _next, inline: serialise the next packet or go idle.
        queue = self._queue
        if queue:
            packet = queue.popleft()
            self.sim.call_later(packet.size / self.rate, self._tx_done,
                                packet)
        else:
            self._busy = False

    def _wire_schedule(self, packet) -> None:
        self.sim.call_later(self.propagation, self._wire_arrive, packet)

    def _wire_arrive(self, packet) -> None:
        self.wire_inflight -= 1
        self.deliver(packet)

    def _wire_depart(self, packet) -> None:
        """Local half of a boundary-link arrival: the in-flight count
        drops here while the delivery executes in the peer shard under
        the same calendar key (the two halves touch disjoint state)."""
        self.wire_inflight -= 1
