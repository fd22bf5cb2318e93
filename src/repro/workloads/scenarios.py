"""Scenario builders reproducing the paper's evaluation setups (§2.3, §6).

A :class:`Scenario` wires the paper's two-server testbed (a
:func:`repro.topo.two_host` fabric), one I/O architecture, eRPC/KV servers
for CPU-involved flows, LineFS servers for CPU-bypass flows, and
saturating clients — then runs warm-up + measurement windows. Dynamic
behaviours (flow replacement, bursts) are expressed as per-phase actions.

Experiments run on a *scaled* host by default (LLC divided by
``scale``): every capacity relationship of the paper's testbed is
preserved (baseline rings exceed the DDIO partition, ShRing's shared ring
stays below it, CEIO's credit pool equals it) while steady state arrives
``scale``-times sooner — essential for a packet-level simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..apps.erpc import ErpcConfig, ErpcServer
from ..apps.kvstore import KvStore
from ..apps.linefs import LineFsServer
from ..audit import Reconciler, build_fabric_ledger, record_report
from ..core import CeioConfig
from ..faults import FaultController, FaultPlan
from ..hw import CacheConfig, CpuConfig, HostConfig
from ..io_arch import build_arch
from ..io_arch.shring import ShringConfig
from ..net import Flow, FlowKind, OpenLoopSource, SaturatingSource
from ..sim import Simulator
from ..sim.units import MIB, US
from ..topo import Fabric, two_host
from .measure import Measurement, MeasurementWindow

__all__ = ["ScenarioConfig", "Scenario", "scaled_host_config",
           "shring_entries_for"]


def scaled_host_config(scale: int = 4, set_associative: bool = False,
                       io_buf_size: int = 2048,
                       cores: Optional[int] = None) -> HostConfig:
    """The paper's testbed with the LLC divided by ``scale``.

    Only the cache shrinks: link, PCIe, DRAM, and ring sizes keep their
    real values, so the *pressure relationships* (rings vs DDIO capacity,
    shared ring vs DDIO capacity, credits vs DDIO capacity) are identical
    to the full-size testbed while transients are ``scale`` x shorter.
    ``cores`` widens the receiver's core pool beyond the testbed's 16
    (wide-fan-in scenarios dedicate one eRPC core per incoming flow);
    ``None`` keeps the default.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    cache = CacheConfig(size=12 * MIB // scale,
                        set_associative=set_associative)
    config = HostConfig(cache=cache, io_buf_size=io_buf_size)
    if cores is not None:
        config.cpu = CpuConfig(cores=cores)
    return config


def shring_entries_for(host_config: HostConfig) -> int:
    """ShRing's ring size rule from the paper's eval: 4096 entries under a
    12 MB LLC, i.e. two thirds of LLC-capacity-in-buffers."""
    return (host_config.cache.size // host_config.io_buf_size) * 2 // 3


def build_host_arch(arch: str, host, host_config: HostConfig,
                    ceio: Optional[CeioConfig] = None):
    """One host's I/O architecture: ShRing's ring sized by
    :func:`shring_entries_for`, CEIO under ``ceio`` when given, anything
    else at its defaults."""
    if arch == "shring":
        return build_arch("shring", host, config=ShringConfig(
            ring_entries=shring_entries_for(host_config)))
    if arch == "ceio" and ceio is not None:
        return build_arch("ceio", host, config=ceio)
    return build_arch(arch, host)


def client_stagger(rng) -> float:
    """Client threads come up a few microseconds apart, not in lockstep:
    one draw from ``rng``'s ``client-stagger`` stream (a host's RNG
    namespace)."""
    return rng.stream("client-stagger").uniform(0, 20_000.0)


#: Interval between mid-run conservation barriers under
#: ``REPRO_SIM_DEBUG=1``, ns.
AUDIT_BARRIER_NS = 50 * US


def run_audited(sim: Simulator, reconciler: Optional[Reconciler],
                until: float) -> None:
    """Advance ``sim`` to ``until``, reconciling at periodic barriers
    when the debug sanitizer is on.

    The barrier checks run from *outside* the event loop — between
    ``sim.run()`` chunks, never as an injected process — so debug mode
    keeps its contract of changing no results, only adding checks.
    """
    if reconciler is None or not sim.debug:
        sim.run(until=until)
        return
    while True:
        step_until = min(until, sim.now + AUDIT_BARRIER_NS)
        sim.run(until=step_until)
        report = reconciler.check(now=sim.now, barrier_only=True)
        if not report.ok:
            record_report(report)
        if step_until >= until:
            return


def arch_extras(arch) -> Dict[str, float]:
    """The architecture's path counters, for ``Measurement.extras``."""
    extras: Dict[str, float] = {}
    for attr in ("fast_packets", "slow_packets", "overdraft",
                 "ring_full_drops", "guard_marks", "congestion_events"):
        counter = getattr(arch, attr, None)
        if counter is not None:
            extras[attr] = counter.value
    if hasattr(arch, "fast_fraction"):
        extras["fast_fraction"] = arch.fast_fraction()
    return extras


@dataclass
class ScenarioConfig:
    arch: str = "ceio"
    #: LLC scale-down factor (see :func:`scaled_host_config`).
    scale: int = 4
    #: Payload of CPU-involved (KV/echo) request packets.
    payload: int = 144
    #: eRPC transport: "dpdk" or "rdma".
    transport: str = "dpdk"
    n_involved: int = 8
    n_bypass: int = 0
    #: Packets per LineFS chunk (chunk bytes = chunk_packets * payload).
    chunk_packets: int = 32
    bypass_payload: int = 1024
    #: Closed-loop outstanding messages per client thread.
    outstanding: int = 96
    #: If set, CPU-involved clients are *open-loop* at this aggregate
    #: offered load (Mpps across all involved flows) instead of
    #: closed-loop saturating — the right methodology for comparing
    #: latency across architectures at identical demand.
    open_loop_mpps: Optional[float] = None
    warmup: float = 400 * US
    duration: float = 600 * US
    seed: int = 0
    set_associative_cache: bool = False
    io_buf_size: int = 2048
    #: Extra per-request CPU cycles charged by the RPC handler (models
    #: heavier application logic; Table 2's echo-with-full-stack setup).
    app_extra_cycles: float = 0.0
    ceio: Optional[CeioConfig] = None
    host_config: Optional[HostConfig] = None
    #: Fault plan armed at build time (:mod:`repro.faults`); None/empty =
    #: the healthy testbed, bit-identical to a config without the field.
    faults: Optional[FaultPlan] = None


class Scenario:
    """One built testbed + applications, ready to run and measure."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        host_config = config.host_config or scaled_host_config(
            config.scale, config.set_associative_cache, config.io_buf_size)
        self.fabric = Fabric(two_host(), host_config=host_config,
                             seed=config.seed)
        self.endpoint = self.fabric.endpoints["host"]
        self.arch = build_host_arch(config.arch, self.endpoint.host,
                                    host_config, config.ceio)
        self.endpoint.install_io_arch(self.arch)
        self.kv = KvStore(seed=config.seed)
        self.involved: List[Tuple[Flow, ErpcServer, SaturatingSource]] = []
        self.bypass: List[Tuple[Flow, LineFsServer, SaturatingSource]] = []
        self.fault_controller: Optional[FaultController] = None
        self.reconciler: Optional[Reconciler] = None
        self._built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> "Scenario":
        cfg = self.config
        for i in range(cfg.n_involved):
            self.add_involved_flow(f"kv{i}")
        for i in range(cfg.n_bypass):
            self.add_bypass_flow(f"dfs{i}")
        if cfg.faults:
            self.fault_controller = FaultController(
                self.endpoint, cfg.faults, scenario=self)
            self.fault_controller.arm()
        self.reconciler = Reconciler(build_fabric_ledger(self.fabric))
        self._built = True
        return self

    def add_involved_flow(self, name: str,
                          outstanding: Optional[int] = None
                          ) -> Tuple[Flow, ErpcServer, SaturatingSource]:
        cfg = self.config
        flow = Flow(FlowKind.CPU_INVOLVED, name=name,
                    message_payload=cfg.payload, packets_per_message=1)
        # late_ok: the crash/restart fault path re-registers mid-window by
        # design; add_flow announces the flow to any open window.
        sender = self.endpoint.add_flow(flow, late_ok=True)
        core = self.endpoint.host.cpu.allocate()
        erpc_config = ErpcConfig(transport=cfg.transport)
        erpc_config.rpc_overhead_cycles += cfg.app_extra_cycles
        server = ErpcServer(self.arch, flow, core, self.kv.handle,
                            config=erpc_config)
        server.start()
        if cfg.open_loop_mpps is not None:
            per_flow_rate = cfg.open_loop_mpps * 1e-3 / max(1, cfg.n_involved)
            source = OpenLoopSource(
                self.endpoint.sim, sender, rate_msgs_per_ns=per_flow_rate,
                rng=self.endpoint.rng.stream(f"openloop-{name}"))  # repro: noqa=D109 -- per-tenant stream; name comes from the validated scenario spec key
        else:
            source = SaturatingSource(
                self.endpoint.sim, sender,
                outstanding=cfg.outstanding if outstanding is None
                else outstanding)
        source.start(delay=client_stagger(self.endpoint.rng))
        entry = (flow, server, source)
        self.involved.append(entry)
        return entry

    def add_bypass_flow(self, name: str
                        ) -> Tuple[Flow, LineFsServer, SaturatingSource]:
        cfg = self.config
        flow = Flow(FlowKind.CPU_BYPASS, name=name,
                    message_payload=cfg.bypass_payload,
                    packets_per_message=cfg.chunk_packets)
        sender = self.endpoint.add_flow(flow, late_ok=True)
        core = self.endpoint.host.cpu.allocate()
        server = LineFsServer(self.arch, core)
        server.attach_flow(flow)
        server.start()
        source = SaturatingSource(self.endpoint.sim, sender,
                                  outstanding=max(4, cfg.outstanding // 12))
        source.start(delay=client_stagger(self.endpoint.rng))
        entry = (flow, server, source)
        self.bypass.append(entry)
        return entry

    def remove_involved_flow(self) -> Optional[Flow]:
        """Stop the most recent CPU-involved flow and free its core."""
        if not self.involved:
            return None
        flow, server, source = self.involved.pop()
        source.stop()
        server.stop()
        self.endpoint.host.cpu.release(server.core)
        return flow

    def crash_involved_flow(self, index: int = 0) -> Optional[str]:
        """Fault action (repro.faults apps "crash_restart"): kill the
        ``index``-th CPU-involved worker outright.

        Unlike :meth:`remove_involved_flow` — which models a flow going
        quiet but staying registered — a crash tears the flow all the way
        down: the I/O architecture quiesces it (drains interrupted,
        credits and on-NIC buffers reclaimed), the sender is dropped so
        in-flight retransmission state dies with the app, and the core is
        freed. Returns the flow's name for :meth:`restart_involved_flow`.
        """
        if not self.involved:
            return None
        index %= len(self.involved)
        flow, server, source = self.involved.pop(index)
        source.stop()
        server.stop()
        self.endpoint.host.cpu.release(server.core)
        self.arch.unregister_flow(flow)
        self.endpoint.senders.pop(flow.flow_id, None)
        return flow.name

    def restart_involved_flow(self, name: str
                              ) -> Tuple[Flow, ErpcServer, SaturatingSource]:
        """Bring a crashed worker back under the same name. The flow
        re-registers from scratch (fresh flow id, fresh credit account,
        fresh steering rule) — the §5 re-registration path."""
        return self.add_involved_flow(name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_measure(self, warmup: Optional[float] = None,
                    duration: Optional[float] = None) -> Measurement:
        """Warm up, then measure one steady-state window.

        Every window ends with a full cross-layer reconciliation: the
        report is attached to the measurement and queued for the runner's
        audit collector. Under ``REPRO_SIM_DEBUG=1`` the run additionally
        checks the barrier-safe accounts every :data:`AUDIT_BARRIER_NS`.
        """
        cfg = self.config
        if not self._built:
            self.build()
        sim = self.endpoint.sim
        run_audited(sim, self.reconciler,
                    sim.now + (cfg.warmup if warmup is None else warmup))
        window = MeasurementWindow(self.endpoint, self.arch)
        run_audited(sim, self.reconciler,
                    sim.now + (cfg.duration if duration is None else duration))
        measurement = window.finish()
        measurement.extras.update(arch_extras(self.arch))
        if self.reconciler is not None:
            report = self.reconciler.check(now=sim.now)
            measurement.audit = report.to_dict()
            record_report(report)
        return measurement

    def run_phases(self, actions: List[Callable[["Scenario"], None]],
                   phase_warmup: Optional[float] = None,
                   phase_duration: Optional[float] = None
                   ) -> List[Measurement]:
        """Phase 0 runs as built; each action mutates the scenario and a new
        warm-up + window follows (the Figure 4 / Figure 10 time axis)."""
        results = [self.run_measure(phase_warmup, phase_duration)]
        for action in actions:
            action(self)
            results.append(self.run_measure(phase_warmup, phase_duration))
        return results


def replace_two_with_bypass(scenario: Scenario) -> None:
    """The Figure 4a / 10a phase action: two CPU-involved flows are
    replaced by two CPU-bypass (LineFS) flows."""
    for _ in range(2):
        scenario.remove_involved_flow()
    n = len(scenario.bypass)
    for i in range(2):
        scenario.add_bypass_flow(f"dfs{n + i}")


def add_two_burst_flows(scenario: Scenario) -> None:
    """The Figure 4b / 10b phase action: two additional burst CPU-involved
    flows arrive on two extra cores."""
    n = len(scenario.involved)
    for i in range(2):
        scenario.add_involved_flow(f"burst{n + i}")
