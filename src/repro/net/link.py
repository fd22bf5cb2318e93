"""Point-to-point link and ECN-marking switch port.

The testbed fabric is client NIC -> switch -> server NIC at 200 Gbps. The
switch egress port toward the server is the only contended queue; it does
standard DCTCP-style ECN marking (mark when the instantaneous queue exceeds
K) and tail-drops when its buffer is full.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Simulator, Store
from ..sim.stats import Counter, TimeWeightedGauge

__all__ = ["Link", "SwitchPort"]


def _trace_drop(tracer, link_name: str, kind: str, packet) -> None:
    """Attribute a dropped packet to its cause ("tail" for buffer
    overflow, else the injecting fault's kind) so chaos experiments and
    ``Tracer.dump()`` can tell congestion loss from injected loss."""
    if tracer is not None:
        tracer.emit("link.drop", link=link_name, kind=kind,
                    flow=packet.flow.flow_id, seq=packet.seq)


class Link:
    """FIFO serialising link: rate (bytes/ns) plus propagation delay."""

    def __init__(self, sim: Simulator, rate: float, propagation: float,
                 deliver: Optional[Callable] = None, name: str = "link"):
        if rate <= 0:
            raise ValueError("link rate must be positive")
        self.sim = sim
        self.rate = rate
        self.propagation = propagation
        self.deliver = deliver
        self.name = name
        self._queue = Store(sim, name=f"{name}.q")
        self.tx_packets = Counter(f"{name}.tx")
        self.tx_bytes = Counter(f"{name}.tx_bytes")
        # Fault seam (repro.faults net.link): callable(packet) -> drop-kind
        # string or None; installed only while a fault window is open.
        self.fault = None
        self.fault_dropped = Counter(f"{name}.fault_dropped")
        #: Optional Tracer; every drop emits a "link.drop" event through it.
        self.tracer = None
        self._egress_proc = sim.process(self._egress(), name=f"{name}-egress")

    def send(self, packet) -> None:
        """Enqueue a packet for transmission (non-blocking, unbounded —
        upstream senders are window-limited)."""
        if self.fault is not None:
            kind = self.fault(packet)
            if kind is not None:
                self.fault_dropped.add(1)
                _trace_drop(self.tracer, self.name, kind, packet)
                return
        self._queue.try_put(packet)

    def _egress(self):
        queue = self._queue
        while True:
            packet = queue.try_get()
            if packet is None:
                packet = yield queue.get()
            yield packet.size / self.rate
            self.tx_packets.add(1)
            self.tx_bytes.add(packet.size)
            if self.deliver is not None:
                # Propagation does not occupy the link: schedule delivery
                # (allocation-free; the packet rides as the callable's arg).
                self.sim.call_later(self.propagation, self.deliver, packet)


class SwitchPort:
    """Shared egress queue with ECN marking and tail drop.

    ``ecn_threshold`` is DCTCP's K in bytes; packets enqueued while the
    queue exceeds K are CE-marked. The buffer is finite: overflowing
    packets are dropped (the sender discovers this via duplicate ACKs or
    retransmission timeout).
    """

    def __init__(self, sim: Simulator, rate: float, propagation: float,
                 deliver: Callable, buffer_bytes: int = 1_000_000,
                 ecn_threshold: int = 200_000, name: str = "swport"):
        self.sim = sim
        self.rate = rate
        self.propagation = propagation
        self.deliver = deliver
        self.buffer_bytes = buffer_bytes
        self.ecn_threshold = ecn_threshold
        self.name = name
        self._queue = Store(sim, name=f"{name}.q")
        self._queued_bytes = 0
        self.queue_gauge = TimeWeightedGauge(f"{name}.queue")
        self.rx_offered = Counter(f"{name}.rx_offered")
        self.tx_packets = Counter(f"{name}.tx")
        self.marked_packets = Counter(f"{name}.marked")
        self.dropped_packets = Counter(f"{name}.dropped")
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
        # Fault seam + drop tracing, as on Link.
        self.fault = None
        self.fault_dropped = Counter(f"{name}.fault_dropped")
        self.tracer = None
        self._egress_proc = sim.process(self._egress(), name=f"{name}-egress")

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def send(self, packet) -> None:
        self.rx_offered.add(1)
        if self.fault is not None:
            kind = self.fault(packet)
            if kind is not None:
                self.fault_dropped.add(1)
                _trace_drop(self.tracer, self.name, kind, packet)
                return
        if self._queued_bytes + packet.size > self.buffer_bytes:
            self.dropped_packets.add(1)
            _trace_drop(self.tracer, self.name, "tail", packet)
            return
        if self._queued_bytes > self.ecn_threshold:
            packet.ecn_marked = True
            self.marked_packets.add(1)
        self._queued_bytes += packet.size
        self.queued_packets += 1
        self.queue_gauge.update(self.sim.now, self._queued_bytes)
        self._queue.try_put(packet)

    def _egress(self):
        queue = self._queue
        while True:
            packet = queue.try_get()
            if packet is None:
                packet = yield queue.get()
            yield packet.size / self.rate
            self._queued_bytes -= packet.size
            self.queued_packets -= 1
            self.queue_gauge.update(self.sim.now, self._queued_bytes)
            self.tx_packets.add(1)
            self.wire_inflight += 1
            self._wire_send(packet)

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
