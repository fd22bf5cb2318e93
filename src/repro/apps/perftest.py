"""perftest analogues: ``ib_write_bw`` and ``ib_write_lat`` (§6.1, §6.3).

The paper benchmarks CEIO's data path against Mellanox perftest: Figure 11
(fast vs slow path vs ib_write_bw throughput over message size) and
Table 3 (write latency at 64 B / 1 KB / 4 KB). These functions build a
self-contained testbed per measurement and return plain dictionaries.

``raw`` mode measures RDMA write on the unmanaged (baseline) architecture
at low occupancy — LLC behaviour is then irrelevant, matching perftest's
single-flow setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core import CeioArchitecture
from ..frameworks.rdma import CompletionQueue, QpType, RdmaEndpoint
from ..hw import HostConfig
from ..io_arch import build_arch
from ..io_arch.base import IOArchitecture
from ..net import Flow, FlowKind, SaturatingSource
from ..sim.stats import Histogram
from ..sim.units import MS, US, to_gbps
from ..topo import Fabric, two_host

__all__ = ["RdmaSink", "BwResult", "LatResult", "ib_write_bw",
           "ib_write_lat"]


class RdmaSink:
    """A pure CPU-bypass consumer: releases buffers at message completion
    without reading them (true one-sided RDMA write semantics)."""

    def __init__(self, arch: IOArchitecture, poll_gap: float = 500.0):
        self.arch = arch
        self.sim = arch.sim
        self.cq = CompletionQueue(self.sim)
        self.endpoint = RdmaEndpoint(arch, self.cq)
        self.poll_gap = poll_gap
        self.bytes_received = 0.0
        self.messages = 0.0
        self.message_latency = Histogram("sink.msg_latency")
        self._running = False

    def attach_flow(self, flow: Flow) -> None:
        self.endpoint.create_qp(flow, QpType.RC)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.endpoint.start()
        self._proc = self.sim.process(self._loop(), name="rdma-sink")

    def _loop(self):
        while self._running:
            completions = self.cq.poll(16)
            if not completions:
                yield self.poll_gap
                continue
            now = self.sim.now
            rxmap = self.arch.flows
            for wc in completions:
                self.bytes_received += wc.byte_len
                self.messages += 1
                first_send = min(r.packet.send_time for r in wc.records)
                self.message_latency.record(max(1.0, now - first_send))
                rx = rxmap.get(wc.flow.flow_id)
                if rx is not None:
                    for record in wc.records:
                        rx.record_processed(record, now)
                self.arch.release(wc.records)


@dataclass
class BwResult:
    arch: str
    msg_size: int
    path: str
    gbps: float
    mpps: float


@dataclass
class LatResult:
    arch: str
    msg_size: int
    path: str
    avg_us: float
    p50_us: float
    p99_us: float


def _packets_for(msg_size: int, mtu_payload: int = 1024):
    """Split a message into packets of at most ``mtu_payload`` bytes."""
    if msg_size <= mtu_payload:
        return msg_size, 1
    count = (msg_size + mtu_payload - 1) // mtu_payload
    return mtu_payload, count


def _bw_batch(payload: int, count: int):
    """ib_write_bw posts writes back-to-back with one completion per batch
    (the Write-with-immediate batching of §4.1): group small messages so a
    "message" is at least an 8 KB batch. Pure bandwidth-test semantics —
    the sink counts bytes either way."""
    batch = max(count, (8192 + payload - 1) // payload)
    return payload, batch


def ib_write_bw(arch_name: str = "ceio", msg_size: int = 65536,
                duration: float = 1.0 * MS, force_slow: bool = False,
                host_config: Optional[HostConfig] = None,
                outstanding: int = 64, seed: int = 0) -> BwResult:
    """Single-flow RDMA write bandwidth (Figure 11)."""
    bed = Fabric(two_host(), host_config=host_config,
                 seed=seed).endpoints["host"]
    arch = build_arch(arch_name, bed.host)
    bed.install_io_arch(arch)
    payload, count = _bw_batch(*_packets_for(msg_size))
    flow = Flow(FlowKind.CPU_BYPASS, name="bw",
                message_payload=payload, packets_per_message=count)
    sink = RdmaSink(arch)
    sender = bed.add_flow(flow)
    sink.attach_flow(flow)
    sink.start()
    if force_slow:
        if not isinstance(arch, CeioArchitecture):
            raise ValueError("force_slow requires the ceio architecture")
        arch.pin_slow(flow)
    source = SaturatingSource(bed.sim, sender, outstanding=outstanding)
    source.start()
    bed.run(until=duration)
    goodput = sink.bytes_received / duration
    pkts = goodput / max(1, payload)
    path = "slow" if force_slow else (
        "fast" if arch_name == "ceio" else "raw")
    return BwResult(arch=arch_name, msg_size=msg_size, path=path,
                    gbps=to_gbps(goodput), mpps=pkts * 1e3)


def ib_write_lat(arch_name: str = "ceio", msg_size: int = 64,
                 iters: int = 200, force_slow: bool = False,
                 host_config: Optional[HostConfig] = None,
                 seed: int = 0) -> LatResult:
    """Ping-pong RDMA write latency (Table 3).

    One message in flight at a time; the reported latency is the one-way
    delivery+completion time plus the fixed reverse-path delay (perftest
    reports RTT/2 for write_lat; we report the same quantity).
    """
    bed = Fabric(two_host(), host_config=host_config,
                 seed=seed).endpoints["host"]
    arch = build_arch(arch_name, bed.host)
    bed.install_io_arch(arch)
    payload, count = _packets_for(msg_size)
    flow = Flow(FlowKind.CPU_BYPASS, name="lat",
                message_payload=payload, packets_per_message=count)
    sink = RdmaSink(arch, poll_gap=100.0)
    sender = bed.add_flow(flow)
    sink.attach_flow(flow)
    sink.start()
    if force_slow:
        if not isinstance(arch, CeioArchitecture):
            raise ValueError("force_slow requires the ceio architecture")
        arch.pin_slow(flow)

    samples: List[float] = []

    def pingpong(sim):
        for _ in range(iters):
            t0 = sim.now
            done = bed.sim.event()
            sender.submit_message(flow.make_message(), done.succeed)
            yield done
            while sink.message_latency.count < len(samples) + 1:
                yield 50.0
            samples.append(sim.now - t0)

    proc = bed.sim.process(pingpong(bed.sim))
    # Run just until the ping-pong finishes (idle pollers run forever).
    deadline = 100 * MS
    while not proc.triggered and bed.sim.now < deadline and bed.sim.peek() != float("inf"):
        bed.sim.step()

    hist = Histogram("lat")
    for s in samples:
        hist.record(max(1.0, s))
    path = "slow" if force_slow else (
        "fast" if arch_name == "ceio" else "raw")
    return LatResult(arch=arch_name, msg_size=msg_size, path=path,
                     avg_us=hist.mean / US,
                     p50_us=hist.percentile(50) / US,
                     p99_us=hist.percentile(99) / US)
