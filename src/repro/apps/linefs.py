"""LineFS-style in-memory distributed file system server (§6.1).

LineFS (Kim et al., SOSP 2021) receives file chunks over RDMA (CPU-bypass
flows) and performs replication and logging on the host. The paper's §6.4
lesson attributes LineFS's lower ceiling to exactly the behaviour modelled
here:

- chunk payloads arrive as multi-packet RDMA messages, completed by a
  Write-with-immediate (message-granularity completions through the
  :class:`~repro.frameworks.rdma.RdmaEndpoint`);
- the server then **copies** each chunk from the I/O buffers into its log
  (not zero-copy!), touching every received buffer — so LLC residency at
  *message* completion time determines hit/miss — and paying DRAM
  bandwidth for the copy (the ~10% residual miss rate of §6.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..frameworks.rdma import CompletionQueue, QpType, RdmaEndpoint, WorkCompletion
from ..hw.cpu import Core
from ..io_arch.base import IOArchitecture
from ..net.packet import Flow

__all__ = ["LineFsConfig", "LineFsServer"]


@dataclass
class LineFsConfig:
    #: Replication factor: each chunk is copied once into the local log and
    #: once per replica staging buffer (LineFS replicates writes; the copy
    #: traffic is what §6.4 blames for its residual miss rate).
    replication: int = 2
    #: Cycles of metadata work per chunk (inode/log headers, digestion).
    metadata_cycles: float = 1500.0
    #: Idle wait between CQ polls, ns.
    poll_gap: float = 500.0


class LineFsServer:
    """Consumes chunk completions from a CQ on a dedicated core."""

    def __init__(self, arch: IOArchitecture, core: Core,
                 config: Optional[LineFsConfig] = None,
                 endpoint: Optional[RdmaEndpoint] = None):
        self.arch = arch
        self.sim = arch.sim
        self.core = core
        self.config = config or LineFsConfig()
        self.cq = CompletionQueue(self.sim)
        self.endpoint = endpoint or RdmaEndpoint(arch, self.cq)
        self.flows: List[Flow] = []
        self.chunks_written = 0.0
        self.bytes_written = 0.0
        self._running = False

    def attach_flow(self, flow: Flow) -> None:
        self.endpoint.create_qp(flow, QpType.RC)
        self.flows.append(flow)

    def detach_flow(self, flow: Flow) -> None:
        self.endpoint.destroy_qp(flow)
        if flow in self.flows:
            self.flows.remove(flow)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.endpoint.start()
        self._proc = self.sim.process(self._loop(), name="linefs-server")

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running:
            completions = self.cq.poll(8)
            if not completions:
                yield self.config.poll_gap
                continue
            for wc in completions:
                yield from self._write_chunk(wc)

    def _write_chunk(self, wc: WorkCompletion):
        """Replicate + log one chunk: read every I/O buffer, copy it out."""
        cfg = self.config
        rx = self.arch.flows.get(wc.flow.flow_id)
        for record in wc.records:
            # The copy source is the I/O buffer: LLC hit or DRAM miss.
            yield from self.core.read_buffer(record.key,
                                             record.packet.payload)
        copies = 1 + cfg.replication
        yield from self.core.copy_to_app_buffer(wc.byte_len * copies)
        yield self.core.compute(cfg.metadata_cycles
                                + self.arch.app_overhead_cycles()
                                * len(wc.records))
        now = self.sim.now
        if rx is not None:
            for record in wc.records:
                rx.record_processed(record, now)
        self.arch.release(wc.records)
        self.chunks_written += 1
        self.bytes_written += wc.byte_len
