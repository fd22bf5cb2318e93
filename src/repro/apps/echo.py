"""Echo workload (§6.1): the rawest view of the I/O data path.

One client streams messages; the server echoes a 64 B acknowledgement per
message. Used by the paper to demonstrate peak data-path performance
(Figure 11, Table 2) because the application adds almost no CPU work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..frameworks.dpdk import EthDev, RX_BURST_MAX
from ..hw.cpu import Core
from ..io_arch.base import IOArchitecture
from ..net.packet import Flow

__all__ = ["EchoConfig", "EchoServer"]


@dataclass
class EchoConfig:
    #: Cycles to build and enqueue the 64 B acknowledgement.
    ack_cycles: float = 35.0
    poll_gap: float = 120.0
    rx_burst: int = RX_BURST_MAX


class SharedEchoServer:
    """An echo worker core serving *any* ready flow (RDMA UD mode, §6.3).

    Used by the thousand-flow experiment: a fixed pool of cores drains
    whichever queue pairs have data, via the architecture's ready-flow
    notification queue.
    """

    def __init__(self, arch: IOArchitecture, core: Core,
                 config: Optional[EchoConfig] = None):
        self.arch = arch
        self.sim = arch.sim
        self.core = core
        self.config = config or EchoConfig()
        self.echoed = 0.0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._proc = self.sim.process(
            self._loop(), name=f"shared-echo{self.core.index}")

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        cfg = self.config
        while self._running:
            records = self.arch.poll_any(cfg.rx_burst)
            if not records:
                # NAPI-style: block on the next ready notification instead
                # of spinning (idle polling across thousands of flows would
                # dominate the event calendar).
                yield self.arch.wait_ready()
                continue
            for record in records:
                yield from self.core.read_buffer(record.key,
                                                 record.packet.payload)
                yield self.core.compute(cfg.ack_cycles
                                        + self.arch.app_overhead_cycles())
                rx = self.arch.flows.get(record.flow.flow_id)
                if rx is not None:
                    rx.record_processed(record, self.sim.now)
                self.echoed += 1
            self.arch.release(records)


class EchoServer:
    """Minimal consumer: read payload, send 64 B ack, recycle buffer."""

    def __init__(self, arch: IOArchitecture, flow: Flow, core: Core,
                 config: Optional[EchoConfig] = None,
                 ethdev: Optional[EthDev] = None):
        self.arch = arch
        self.sim = arch.sim
        self.flow = flow
        self.core = core
        self.config = config or EchoConfig()
        self.ethdev = ethdev or EthDev(arch)
        self.ethdev.rx_queue_setup(flow)
        self.echoed = 0.0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._proc = self.sim.process(
            self._loop(), name=f"echo-{self.flow.name}")

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        cfg = self.config
        while self._running:
            records = yield from self.ethdev.rx_burst(self.flow, cfg.rx_burst)
            if not records:
                yield cfg.poll_gap
                continue
            for record in records:
                yield from self.core.read_buffer(record.key,
                                                 record.packet.payload)
                yield self.core.compute(cfg.ack_cycles
                                        + self.arch.app_overhead_cycles())
                rx = self.arch.flows.get(record.flow.flow_id)
                if rx is not None:
                    rx.record_processed(record, self.sim.now)
                self.echoed += 1
            self.ethdev.free(records)
            self.ethdev.tx_burst(len(records))
