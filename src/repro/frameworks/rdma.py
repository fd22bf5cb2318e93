"""A verbs-flavoured RDMA facade (`libibverbs` analogue).

Receive-side RDMA semantics relevant to the paper:

- payloads land in registered buffers without per-packet CPU involvement
  (CPU-bypass flows, §2.1);
- the *application* learns about data at **message** granularity — e.g. an
  RDMA Write-with-immediate after a batch of writes (the NCCL pattern §4.1
  cites). This is exactly what makes lazy credit release starve bypass
  flows onto CEIO's slow path;
- UD mode carries one message per datagram and supports many remote QPs
  cheaply (used by the thousand-flow experiment, Figure 12).

The NIC-side reassembly (grouping packets into message completions) runs
as a polling process that charges no host-CPU time — it models the RNIC's
own DMA/completion engine, not software.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List

from ..io_arch.base import IOArchitecture, RxRecord
from ..net.packet import Flow
from ..sim import Simulator

__all__ = ["QpType", "WorkCompletion", "CompletionQueue", "QueuePair",
           "RdmaEndpoint"]


class QpType(enum.Enum):
    RC = "reliable-connection"
    UD = "unreliable-datagram"


class WorkCompletion:
    """One CQE: a completed receive (message-granularity)."""

    __slots__ = ("flow", "message_id", "byte_len", "records", "timestamp",
                 "opcode")

    def __init__(self, flow: Flow, message_id: int, byte_len: int,
                 records: List[RxRecord], timestamp: float,
                 opcode: str = "RECV_RDMA_WITH_IMM"):
        self.flow = flow
        self.message_id = message_id
        self.byte_len = byte_len
        self.records = records
        self.timestamp = timestamp
        self.opcode = opcode


class CompletionQueue:
    """A bounded FIFO of completions polled by the application; a push
    onto a full queue is counted as an overflow and dropped."""

    def __init__(self, sim: Simulator, depth: int = 4096):
        self.sim = sim
        self.depth = depth
        self._cq: Deque[WorkCompletion] = deque()
        self.overflows = 0.0

    def __len__(self) -> int:
        return len(self._cq)

    def push(self, wc: WorkCompletion) -> None:
        if len(self._cq) < self.depth:
            self._cq.append(wc)
        else:
            self.overflows += 1

    def poll(self, max_wc: int) -> List[WorkCompletion]:
        """Non-blocking poll (ibv_poll_cq)."""
        cq = self._cq
        return [cq.popleft() for _ in range(min(max_wc, len(cq)))]


class QueuePair:
    """A receive queue pair bound to a flow."""

    def __init__(self, arch: IOArchitecture, flow: Flow,
                 qp_type: QpType, cq: CompletionQueue):
        self.arch = arch
        self.flow = flow
        self.qp_type = qp_type
        self.cq = cq
        self.posted_recvs = 0.0
        arch.register_flow(flow)

    def post_recv(self, count: int) -> None:
        """Post receive WQEs (descriptor budget is owned by the arch)."""
        if count < 0:
            raise ValueError(f"post_recv count must be non-negative: {count}")
        self.posted_recvs += count


class RdmaEndpoint:
    """NIC-side reassembly: packets -> message-granularity completions.

    One endpoint serves many QPs sharing a CQ. It polls the architecture's
    receive rings, groups records by ``message_id``, and pushes a WC once
    a message's packet count is complete (the Write-with-immediate /
    last-fragment signal).
    """

    #: Stop pulling from the receive rings while this many completions are
    #: already waiting for the application: an unbounded pull would absorb
    #: arbitrary bursts into the CQ where no flow-control loop can see
    #: them. With a bounded CQ the backlog stays in the I/O architecture's
    #: buffers, where its congestion machinery applies.
    MAX_CQ_BACKLOG = 32

    def __init__(self, arch: IOArchitecture, cq: CompletionQueue,
                 poll_interval: float = 1_000.0, burst: int = 64):
        self.arch = arch
        self.sim = arch.sim
        self.cq = cq
        self.poll_interval = poll_interval
        self.burst = burst
        self.qps: Dict[int, QueuePair] = {}
        self._partial: Dict[int, List[RxRecord]] = {}
        self.messages_completed = 0.0
        self._proc = None

    def create_qp(self, flow: Flow, qp_type: QpType = QpType.RC) -> QueuePair:
        qp = QueuePair(self.arch, flow, qp_type, self.cq)
        self.qps[flow.flow_id] = qp
        return qp

    def destroy_qp(self, flow: Flow) -> None:
        self.qps.pop(flow.flow_id, None)

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._reassembly_loop(),
                                          name="rdma-endpoint")

    def _reassembly_loop(self):
        while True:
            if len(self.cq) >= self.MAX_CQ_BACKLOG:
                yield self.poll_interval
                continue
            progressed = False
            for fid, qp in list(self.qps.items()):
                records = self.arch.recv_burst(qp.flow, self.burst)
                if not isinstance(records, list):
                    records = yield from records
                if records:
                    progressed = True
                    self._absorb(qp, records)
            if not progressed:
                yield self.poll_interval

    def _absorb(self, qp: QueuePair, records: List[RxRecord]) -> None:
        expected = qp.flow.packets_per_message
        for record in records:
            mid = record.packet.message_id
            parts = self._partial.setdefault(mid, [])
            parts.append(record)
            if len(parts) >= expected or record.packet.last_in_message:
                del self._partial[mid]
                byte_len = sum(r.packet.payload for r in parts)
                self.cq.push(WorkCompletion(qp.flow, mid, byte_len,
                                            parts, self.sim.now))
                self.messages_completed += 1
