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
from typing import Callable, List, Optional

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


def _noop() -> None:
    """Does nothing: the calendar entry a finished loop leaves behind,
    and the end of a blocking receive (which serves its burst itself)."""


class ErpcServer:
    """One RPC event loop: a flow, a dedicated core, and a handler.

    ``handler(ctx) -> cycles`` returns the application cycles to charge
    (the handler may also do real Python work, e.g. the KV store's dict
    operations).

    The loop is a callback state machine: :meth:`_poll` receives a
    burst (or waits ``poll_gap`` on an empty one), and each record goes
    through :meth:`_serve` (the buffer read), :meth:`_handle` (the copy
    when zero-copy is off, then the handler and the compute) and
    :meth:`_served`; the last record of a burst frees it and polls
    again. Every wait is one ``call_later`` entry, at the same
    ``(time, seq)`` the same loop written as a process would use. A
    receive that must block (CEIO's synchronous-drain ablation) runs
    through :meth:`Simulator.drive`. :meth:`stop` takes effect at the
    next poll: a burst being served is finished first.
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

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.call_later(0.0, self._poll)

    def stop(self) -> None:
        self._running = False

    @property
    def per_packet_extra_cycles(self) -> float:
        extra = self.arch.app_overhead_cycles()
        if self.config.transport == "rdma":
            extra += self.config.rdma_extra_cycles
        return extra

    def _poll(self) -> None:
        if not self._running:
            # A finished loop triggers its end at the current time (one
            # calendar entry, as a process's return does).
            self.sim.call_later(0.0, _noop)
            return
        records = self.ethdev.rx_burst(self.flow, self.config.rx_burst)
        if isinstance(records, list):
            self._burst(records)
        else:
            self.sim.drive(self._receive_blocking(records), _noop)

    def _receive_blocking(self, waiting):
        """Wait in a blocking receive, then serve what it returns."""
        self._burst((yield from waiting))

    def _burst(self, records: List[RxRecord]) -> None:
        if records:
            self._serve(records, 0)
        else:
            self.sim.call_later(self.config.poll_gap, self._poll)

    def _serve(self, records: List[RxRecord], index: int) -> None:
        record = records[index]
        # A record may belong to another flow on shared-ring
        # architectures; account it against its own flow.
        rx = self.arch.flows.get(record.flow.flow_id)
        # Zero-copy read of the request straight from the I/O buffer: the
        # LLC hit/miss on this access is the paper's entire story.
        stall, _missed = self.core.read_stall(record.key,
                                              record.packet.payload)
        self.sim.call_later(stall, self._handle, records, index, rx)

    def _handle(self, records: List[RxRecord], index: int, rx,
                copied: bool = False) -> None:
        cfg = self.config
        record = records[index]
        if not (cfg.zero_copy or copied):
            # Copying path: stage the request into an application buffer
            # (usually cold) before handling it.
            self.sim.call_later(self.core.copy_stall(record.packet.payload),
                                self._handle, records, index, rx, True)
            return
        app_cycles = self.handler(RequestContext(record))
        total = (cfg.rpc_overhead_cycles + app_cycles + cfg.tx_cycles
                 + self.per_packet_extra_cycles)
        self.sim.call_later(self.core.compute(total), self._served,
                            records, index, rx)

    def _served(self, records: List[RxRecord], index: int, rx) -> None:
        self.requests += 1
        self.responses += 1
        if rx is not None:
            rx.record_processed(records[index], self.sim.now)
        index += 1
        if index < len(records):
            self._serve(records, index)
            return
        self.ethdev.free(records)
        self.ethdev.tx_burst(len(records))
        self._poll()
