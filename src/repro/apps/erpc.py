"""An eRPC-style RPC framework (Kalia et al., NSDI 2019 — §6.1's key-value
server is built on this).

Design points mirrored from eRPC:

- **poll-mode event loop** pinned to one core per flow (§2.3: "we dedicate
  one CPU core to each I/O flow");
- **zero-copy request processing** — the handler reads the request payload
  straight from the I/O buffer (this is why eRPC outperforms LineFS in
  Figure 9 and why the paper's §6.4 lesson says zero-copy is essential);
- runs over either a DPDK or an RDMA transport; the RDMA transport pays a
  small extra per-packet cost (doorbells/CQE handling), matching the
  slightly lower eRPC(RDMA) curves in Figure 9b.

The response path transmits on the uncontended reverse link: the server
charges TX CPU cycles and counts the packet, and the client-side latency
is the request's network+host path plus the fixed reverse delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..frameworks.dpdk import EthDev, RX_BURST_MAX
from ..hw.cpu import Core
from ..io_arch.base import IOArchitecture, RxRecord
from ..net.packet import Flow

__all__ = ["ErpcConfig", "RequestContext", "ErpcServer"]


@dataclass
class ErpcConfig:
    #: Transport: "dpdk" or "rdma".
    transport: str = "dpdk"
    #: eRPC's zero-copy receive path (§6.4 calls it essential): handlers
    #: read the request in place. False adds a per-request copy into an
    #: application buffer — the LineFS-style pattern that §6.4 blames for
    #: its residual ~10% miss rate and lower ceiling.
    zero_copy: bool = True
    #: Per-request RPC framework cycles (dispatch, session lookup, sslot).
    rpc_overhead_cycles: float = 90.0
    #: Extra per-packet cycles on the RDMA transport (doorbell + CQE).
    rdma_extra_cycles: float = 60.0
    #: TX-side cycles to enqueue the response.
    tx_cycles: float = 45.0
    #: Idle poll gap when the RX ring is empty, ns.
    poll_gap: float = 120.0
    rx_burst: int = RX_BURST_MAX


class RequestContext:
    """Handler view of one request (zero-copy: points at the I/O buffer)."""

    __slots__ = ("record", "payload")

    def __init__(self, record: RxRecord):
        self.record = record
        self.payload = record.packet.payload


class ErpcServer:
    """One RPC event loop: a flow, a dedicated core, and a handler.

    ``handler(ctx) -> cycles`` returns the application cycles to charge
    (the handler may also do real Python work, e.g. the KV store's dict
    operations).
    """

    def __init__(self, arch: IOArchitecture, flow: Flow, core: Core,
                 handler: Callable[[RequestContext], float],
                 config: Optional[ErpcConfig] = None,
                 ethdev: Optional[EthDev] = None):
        if config is not None and config.transport not in ("dpdk", "rdma"):
            raise ValueError(f"unknown transport {config.transport!r}")
        self.arch = arch
        self.sim = arch.sim
        self.flow = flow
        self.core = core
        self.handler = handler
        self.config = config or ErpcConfig()
        self.ethdev = ethdev or EthDev(arch)
        self.ethdev.rx_queue_setup(flow)
        self.requests = 0.0
        self.responses = 0.0
        self._running = False
        self._proc = None

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._proc = self.sim.process(self._event_loop(),
                                      name=f"erpc-{self.flow.name}")

    def stop(self) -> None:
        self._running = False

    @property
    def per_packet_extra_cycles(self) -> float:
        extra = self.arch.app_overhead_cycles()
        if self.config.transport == "rdma":
            extra += self.config.rdma_extra_cycles
        return extra

    def _event_loop(self):
        cfg = self.config
        while self._running:
            records = yield from self.ethdev.rx_burst(self.flow, cfg.rx_burst)
            if not records:
                yield cfg.poll_gap
                continue
            for record in records:
                # A record may belong to another flow on shared-ring
                # architectures; account it against its own flow.
                rx = self.arch.flows.get(record.flow.flow_id)
                yield from self._serve_one(record, rx)
            self.ethdev.free(records)
            self.ethdev.tx_burst(len(records))

    def _serve_one(self, record: RxRecord, rx):
        cfg = self.config
        # Zero-copy read of the request straight from the I/O buffer: the
        # LLC hit/miss on this access is the paper's entire story.
        yield from self.core.read_buffer(record.key, record.packet.payload)
        if not cfg.zero_copy:
            # Copying path: stage the request into an application buffer
            # (usually cold) before handling it.
            yield from self.core.copy_to_app_buffer(record.packet.payload)
        app_cycles = self.handler(RequestContext(record))
        total = (cfg.rpc_overhead_cycles + app_cycles + cfg.tx_cycles
                 + self.per_packet_extra_cycles)
        yield self.core.compute(total)
        self.requests += 1
        self.responses += 1
        if rx is not None:
            rx.record_processed(record, self.sim.now)
