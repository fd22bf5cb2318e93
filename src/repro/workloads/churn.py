"""Thousand-flow UD churn workload (Figure 12, §6.3).

Methodology from the paper: "the client concurrently sends 16 flows with
different queue pair IDs, maintains a short time slot, and randomly
changes the destination queue pairs for each subsequent time slot",
using 512 B echo messages in RDMA UD mode. The receiver registers *all*
N queue pairs; only 16 are active in any slot, so CEIO's active-flow
credit strategy (inactivity reclamation + round-robin reactivation) is
what decides whether the active set runs on the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..apps.echo import EchoConfig, SharedEchoServer
from ..io_arch import build_arch
from ..net import Flow, FlowKind, SaturatingSource
from ..sim.units import US
from ..topo import Fabric, two_host
from .measure import MeasurementWindow
from .scenarios import scaled_host_config

__all__ = ["ChurnConfig", "ChurnResult", "UdChurnScenario"]


@dataclass
class ChurnConfig:
    arch: str = "ceio"
    #: Total registered queue pairs (the Figure 12 x-axis).
    total_flows: int = 128
    #: Queue pairs simultaneously active.
    active_flows: int = 16
    #: Time slot between destination reshuffles, ns.
    time_slot: float = 500 * US
    #: Warm-up horizon, ns — must exceed the CEIO inactivity timeout so the
    #: controller has marked idle flows and recycled their credits before
    #: measurement starts.
    warmup: float = 1_500 * US
    #: Measured horizon, ns.
    duration: float = 1_500 * US
    payload: int = 512
    outstanding: int = 48
    #: Echo worker cores at the receiver.
    worker_cores: int = 14
    scale: int = 4
    seed: int = 0


@dataclass
class ChurnResult:
    arch: str
    total_flows: int
    time_slot: float
    aggregate_mpps: float
    fast_fraction: float
    llc_miss_rate: float


class UdChurnScenario:
    """Builds the churn testbed and runs the slot schedule."""

    def __init__(self, config: ChurnConfig):
        self.config = config
        self.endpoint = Fabric(two_host(),
                               host_config=scaled_host_config(config.scale),
                               seed=config.seed).endpoints["host"]
        self.arch = build_arch(config.arch, self.endpoint.host)
        self.endpoint.install_io_arch(self.arch)
        self.rng = self.endpoint.rng.stream("churn")
        self.flows: List[Flow] = []
        self.sources: List[SaturatingSource] = []
        self.workers: List[SharedEchoServer] = []

    def build(self) -> "UdChurnScenario":
        cfg = self.config
        for i in range(cfg.total_flows):
            flow = Flow(FlowKind.CPU_INVOLVED, name=f"qp{i}",
                        message_payload=cfg.payload, packets_per_message=1)
            sender = self.endpoint.add_flow(flow)
            self.flows.append(flow)
            self.sources.append(
                SaturatingSource(self.endpoint.sim, sender,
                                 outstanding=cfg.outstanding))
        for _ in range(cfg.worker_cores):
            core = self.endpoint.host.cpu.allocate()
            worker = SharedEchoServer(self.arch, core, EchoConfig())
            worker.start()
            self.workers.append(worker)
        return self

    def _reshuffle(self) -> None:
        """Stop the current active set and activate a random new one."""
        for source in self.sources:
            source.stop()
        active = self.rng.sample(range(len(self.sources)),
                                 min(self.config.active_flows,
                                     len(self.sources)))
        for idx in active:
            # Sources are one-shot per activation: build a fresh one so the
            # closed loops restart cleanly.
            old = self.sources[idx]
            flow = old.flow
            sender = self.endpoint.senders[flow.flow_id]
            fresh = SaturatingSource(self.endpoint.sim, sender,
                                     outstanding=self.config.outstanding)
            self.sources[idx] = fresh
            fresh.start()

    def run(self) -> ChurnResult:
        cfg = self.config
        sim = self.endpoint.sim

        def run_slots(horizon: float) -> None:
            end = sim.now + horizon
            while sim.now < end:
                self._reshuffle()
                sim.run(until=min(end, sim.now + cfg.time_slot))

        run_slots(cfg.warmup)
        window = MeasurementWindow(self.endpoint, self.arch)
        fast_mark = (self.arch.fast_packets
                     if hasattr(self.arch, "fast_packets") else 0.0)
        slow_mark = (self.arch.slow_packets
                     if hasattr(self.arch, "slow_packets") else 0.0)
        run_slots(cfg.duration)
        measurement = window.finish()
        if hasattr(self.arch, "fast_packets"):
            fast = self.arch.fast_packets - fast_mark
            slow = self.arch.slow_packets - slow_mark
            fast_fraction = fast / (fast + slow) if fast + slow else 0.0
        else:
            fast_fraction = 1.0
        return ChurnResult(
            arch=cfg.arch,
            total_flows=cfg.total_flows,
            time_slot=cfg.time_slot,
            aggregate_mpps=measurement.total_mpps,
            fast_fraction=fast_fraction,
            llc_miss_rate=measurement.llc_miss_rate,
        )
