"""Compile a validated scenario dict into a wired multi-host fabric.

:class:`TopoScenario` is the one scenario builder: it takes a schema dict
(see :mod:`repro.scenario`), builds the topology, compiles it into a
:class:`repro.topo.Fabric`, installs one I/O architecture per server
host, wires each tenant's flows (erpc / kvstore / linefs) from its
source clients, arms per-host fault controllers, and runs warm-up +
measurement windows, reconciling the conservation audit at debug
barriers (the helpers in :mod:`repro.workloads.scenarios`).

Every single-host paper experiment is a ``two_host`` spec (see
:func:`~repro.workloads.scenarios.two_host_spec`). On that topology the
compiled fabric keeps the unprefixed RNG-stream and audit-account names
the single-host goldens pin (``Topology.legacy_names``), and the build
order is fixed — Simulator, registry, Host, ToR port, architecture,
KvStore, then each tenant's flows in spec order with one
``client-stagger`` draw per flow. ``tests/topo/test_two_host_compat.py``
pins the ``paper-baseline`` template's measurement bytes. Phase actions
(Figures 4/10) mutate a built scenario between windows through
:meth:`TopoScenario.add_flow` and :meth:`TopoScenario.stop_involved_flow`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional

from ..apps.erpc import ErpcConfig, ErpcServer
from ..apps.kvstore import KvStore
from ..apps.linefs import LineFsServer
from ..audit import Reconciler, build_fabric_ledger, record_report
from ..core import CeioConfig
from ..demand import (DemandSource, ScaledProfile, poisson_times,
                      profile_from_dict, session_times)
from ..faults import FaultController
from ..net import Flow, FlowKind, OpenLoopSource, SaturatingSource
from ..scenario import canonical, fault_plan_of, validate
from ..scenario.schema import build_topology
from ..sim.units import US
from ..topo import Fabric
from .measure import Measurement, MeasurementWindow
from .scenarios import (arch_extras, build_host_arch, client_stagger,
                        run_audited, scaled_host_config)
from .slo import SloTarget, SloTracker

__all__ = ["TopoScenario", "compile_scenario"]


def echo_handler(ctx) -> float:
    """The plain-eRPC application handler: echo, zero extra cycles."""
    return 0.0


class _FlowRecord:
    """Bookkeeping for one wired flow (crash/restart needs the recipe)."""

    __slots__ = ("flow", "server", "source", "tenant", "src")

    def __init__(self, flow, server, source, tenant, src):
        self.flow = flow
        self.server = server
        self.source = source
        self.tenant = tenant
        self.src = src


class _HostView:
    """The per-host scenario surface ``repro.faults`` injectors expect
    (``involved`` + crash/restart), scoped to one endpoint."""

    def __init__(self, scenario: "TopoScenario", host: str):
        self._scenario = scenario
        self._host = host

    @property
    def involved(self):
        return [(rec.flow, rec.server, rec.source)
                for rec in self._scenario.involved[self._host]]

    def crash_involved_flow(self, index: int = 0) -> Optional[str]:
        return self._scenario.crash_involved_flow(self._host, index)

    def restart_involved_flow(self, name: str):
        return self._scenario.restart_involved_flow(self._host, name)


class TopoScenario:
    """One compiled scenario: fabric + per-host stacks + tenants."""

    def __init__(self, spec: Mapping[str, Any],
                 scope: Optional[Any] = None):
        self.normal = validate(spec)
        self.canonical = canonical(self.normal)
        self.topology = build_topology(self.normal)
        self.seed = self.normal["seed"]
        hosts_cfg = self.normal["hosts"]
        default_cfg = hosts_cfg["*"]
        self._host_cfg: Dict[str, Dict[str, Any]] = {}
        host_configs = {}
        for spec_host in self.topology.server_hosts:
            cfg = hosts_cfg.get(spec_host.name, default_cfg)
            self._host_cfg[spec_host.name] = cfg
            host_configs[spec_host.name] = scaled_host_config(
                cfg["scale"], cfg["set_associative_cache"],
                cfg["io_buf_size"], cores=cfg["cores"])
        self.fabric = Fabric(self.topology, host_configs=host_configs,
                             seed=self.seed, scope=scope)
        #: The fault plan's default target host. Computed from the
        #: *topology* (first server), never from the scoped endpoint
        #: dict, so every shard buckets unqualified specs identically
        #: (on an unscoped fabric the two definitions coincide).
        servers = self.topology.server_hosts
        self.primary = servers[0].name if servers else None
        for name, endpoint in self.fabric.endpoints.items():
            cfg = self._host_cfg[name]
            ceio = cfg.get("ceio")
            with self.fabric.host_domain(name):
                endpoint.install_io_arch(build_host_arch(
                    cfg["arch"], endpoint.host, host_configs[name],
                    None if ceio is None else CeioConfig(**ceio)))
        #: One KV store per server host (ErpcServer handlers close over
        #: it), seeded with the scenario seed.
        self.kv: Dict[str, KvStore] = {
            name: KvStore(seed=self.seed) for name in self.fabric.endpoints}
        self.involved: Dict[str, List[_FlowRecord]] = {
            name: [] for name in self.fabric.endpoints}
        self.bypass: Dict[str, List[_FlowRecord]] = {
            name: [] for name in self.fabric.endpoints}
        self._crashed: Dict[str, Dict[str, _FlowRecord]] = {
            name: {} for name in self.fabric.endpoints}
        #: Flows wired so far per tenant name: the next flow's source.
        self._wired: Dict[str, int] = {}
        self.fault_controllers: List[FaultController] = []
        #: ``net.channel`` specs (shard-coordinator faults), split out of
        #: the plan at build time. No-ops on a single kernel (no cut
        #: links); :func:`repro.shard.run_sharded` compiles them.
        self.channel_fault_specs: tuple = ()
        self.reconciler: Optional[Reconciler] = None
        self._built = False
        self._windows: Dict[str, MeasurementWindow] = {}
        #: Open-loop demand (None for closed-loop scenarios — in which
        #: case no demand source, SLO tracker, or extra RNG stream is
        #: ever created, keeping goldens and shard digests unchanged).
        self.demand_spec: Optional[Dict[str, Any]] = \
            self.normal.get("demand")
        self.slo_trackers: Dict[str, SloTracker] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> "TopoScenario":
        for tenant in self.normal["tenants"]:
            for i in range(tenant["flows"]):
                self._wire_next(tenant, f"{tenant['name']}{i}")
        if self.demand_spec is not None:
            self._build_slo_trackers()
        plan = fault_plan_of(self.normal)
        if plan:
            # net.channel specs belong to the shard coordinator's
            # channel layer (repro.shard.channel); with one kernel there
            # are no cut links, so they are declared no-ops here either
            # way. Host-site specs compile into the owning host's
            # controller — on a scoped fabric only the shard that
            # materialises the endpoint arms it, and the arm is
            # bracketed in the host's event domain so the sequence
            # numbers it consumes are the ones the single kernel (and no
            # other shard) consumes for the same controller.
            self.channel_fault_specs, host_faults = plan.split_channel()
            for host, host_plan in \
                    host_faults.split_by_host(self.primary).items():
                if not self.fabric.is_local_host(host):
                    continue
                self._check_faults_shard_local(host, host_plan)
                with self.fabric.host_domain(host):
                    controller = FaultController(
                        self.fabric.endpoints[host], host_plan,
                        scenario=_HostView(self, host))
                    controller.arm()
                self.fault_controllers.append(controller)
        self.reconciler = Reconciler(build_fabric_ledger(self.fabric))
        self._built = True
        return self

    def _wire_next(self, tenant: Mapping[str, Any], name: str,
                   late_ok: bool = False) -> _FlowRecord:
        """Wire the tenant's next flow from its next source (round
        robin over ``sources``, else the client hosts, else every other
        host)."""
        sources = list(tenant["sources"]) or [
            spec.name for spec in self.topology.client_hosts]
        if not sources:
            sources = [spec.name for spec in self.topology.hosts.values()
                       if spec.name != tenant["host"]]
        index = self._wired.get(tenant["name"], 0)
        self._wired[tenant["name"]] = index + 1
        return self._add_tenant_flow(tenant, name,
                                     sources[index % len(sources)],
                                     late_ok=late_ok)

    def add_flow(self, tenant_name: str, name: str) -> _FlowRecord:
        """Phase action: wire one more flow of ``tenant_name`` mid-run
        (a tenant declared with ``flows: 0`` is wired only this way). It
        announces itself to any open measurement window."""
        for tenant in self.normal["tenants"]:
            if tenant["name"] == tenant_name:
                return self._wire_next(tenant, name, late_ok=True)
        raise KeyError(tenant_name)

    def _check_faults_shard_local(self, host: str, host_plan) -> None:
        """Crash/restart must not straddle a shard boundary: the crash
        stops the flow's *source* (client side) and the restart rebuilds
        it, so both ends must live in this shard. Every other site
        touches only the endpoint's own hardware and last-hop port."""
        if self.fabric.scope is None:
            return
        if not any(spec.site == "apps" for spec in host_plan):
            return
        remote = sorted({rec.src for rec in self.involved[host]
                         if rec.source is None})
        if remote:
            raise ValueError(
                f"apps.crash_restart on {host!r} is not supported under "
                f"this partition: client host(s) {remote} live in a "
                "different shard than the server, and crash/restart "
                "must quiesce both ends atomically. Use fewer shards "
                "(or --shards 1) or co-locate the tenant's sources.")

    def _add_tenant_flow(self, tenant: Mapping[str, Any], name: str,
                         src: str, late_ok: bool = False) -> _FlowRecord:
        """Wire one flow end to end. On a scoped (shard) fabric this is
        still called for *every* flow — registration ordinals, ECMP
        draws, and RNG stream positions are global bookkeeping every
        shard replicates — but live pieces (server stack, source,
        transport) are built only on the shards owning their hosts.
        Construction is bracketed in the owning atoms' event domains so
        per-domain sequence counters advance identically everywhere."""
        fabric = self.fabric
        host = tenant["host"]
        endpoint = fabric.endpoints.get(host)
        if endpoint is None and fabric.scope is None:
            raise KeyError(host)
        local_src = fabric.is_local_host(src)
        server = None
        if tenant["workload"] == "linefs":
            flow = Flow(FlowKind.CPU_BYPASS, name=name,
                        message_payload=tenant["payload"],
                        packets_per_message=tenant["chunk_packets"])
            sender = fabric.add_flow(flow, src=src, dst=host,
                                     late_ok=late_ok)
            if endpoint is not None:
                with fabric.host_domain(host):
                    core = endpoint.host.cpu.allocate()
                    server = LineFsServer(endpoint.io_arch, core)
                    server.attach_flow(flow)
                    server.start()
            source = None
            if local_src:
                with fabric.host_domain(src):
                    if self._demand_entry(tenant) is not None:
                        source = DemandSource(
                            fabric.sim, sender,
                            self._demand_arrivals(tenant, name))
                    else:
                        source = SaturatingSource(
                            fabric.sim, sender,
                            outstanding=tenant["outstanding"])
        else:
            flow = Flow(FlowKind.CPU_INVOLVED, name=name,
                        message_payload=tenant["payload"],
                        packets_per_message=1)
            sender = fabric.add_flow(flow, src=src, dst=host,
                                     late_ok=late_ok)
            if endpoint is not None:
                with fabric.host_domain(host):
                    core = endpoint.host.cpu.allocate()
                    erpc_config = ErpcConfig(transport=tenant["transport"])
                    erpc_config.rpc_overhead_cycles += \
                        tenant["app_extra_cycles"]
                    handler = (self.kv[host].handle
                               if tenant["workload"] == "kvstore"
                               else echo_handler)
                    server = ErpcServer(endpoint.io_arch, flow, core,
                                        handler, config=erpc_config)
                    server.start()
            source = None
            if local_src:
                with fabric.host_domain(src):
                    if self._demand_entry(tenant) is not None:
                        source = DemandSource(
                            fabric.sim, sender,
                            self._demand_arrivals(tenant, name))
                    elif tenant["open_loop_mpps"] is not None:
                        rate = (tenant["open_loop_mpps"] * 1e-3
                                / max(1, tenant["flows"]))
                        source = OpenLoopSource(
                            fabric.sim, sender, rate_msgs_per_ns=rate,
                            rng=fabric.host_rng(host).stream(  # repro: noqa=D109 -- per-tenant stream; name comes from the validated scenario spec key
                                f"openloop-{name}"))
                    else:
                        source = SaturatingSource(
                            fabric.sim, sender,
                            outstanding=tenant["outstanding"])
        # Demand-driven flows measure latency from message *submission*
        # (coordinated-omission fix: sender-side queueing under open-loop
        # overload lands in the tail instead of vanishing).
        if endpoint is not None and self._demand_entry(tenant) is not None:
            rx = endpoint.io_arch.flows.get(flow.flow_id)
            if rx is not None:
                rx.latency_from_submit = True
        # The stagger draw advances the destination host's stream on
        # every shard, local or not: later flows toward the same host
        # must see the same stream position everywhere.
        stagger = client_stagger(fabric.host_rng(host))
        if source is not None:
            with fabric.host_domain(src):
                source.start(delay=stagger)
        record = _FlowRecord(flow, server, source, tenant, src)
        if endpoint is not None:
            bucket = (self.bypass if tenant["workload"] == "linefs"
                      else self.involved)
            bucket[host].append(record)
        return record

    def _demand_entry(self, tenant: Mapping[str, Any]
                      ) -> Optional[Dict[str, Any]]:
        """The tenant's normalised ``demand.tenants`` entry, if any."""
        if self.demand_spec is None:
            return None
        return self.demand_spec["tenants"].get(tenant["name"])

    def _demand_arrivals(self, tenant: Mapping[str, Any], flow_name: str):
        """Lazy arrival-timestamp iterator for one flow of a demand
        tenant: the tenant-aggregate profile scaled down to the flow,
        sampled from the destination host's ``demand-<flow>`` stream (a
        stream per flow, never a materialised list — million-event
        horizons stay O(1) memory)."""
        entry = self._demand_entry(tenant)
        profile = profile_from_dict(
            self.demand_spec["profiles"][entry["profile"]])
        per_flow = ScaledProfile(profile, 1.0 / max(1, tenant["flows"]))
        rng = self.fabric.host_rng(tenant["host"]).stream(  # repro: noqa=D109 -- per-flow stream; name comes from the validated scenario spec key
            f"demand-{flow_name}")
        if entry["arrivals"] == "sessions":
            return session_times(rng, per_flow,
                                 mean_messages=entry["mean_messages"],
                                 shape=entry["shape"],
                                 intra_gap_ns=entry["intra_gap_us"] * US)
        return poisson_times(rng, per_flow)

    def _build_slo_trackers(self) -> None:
        """One tracker per (local) server host observing demand tenants.

        Created at build() time — ``open_windows`` must never schedule
        events (shard contract), so sampling runs from t=0 and
        ``summary(since=...)`` filters to the measure window later."""
        window = self.demand_spec["window_us"] * US
        for host in sorted(self.fabric.endpoints):
            endpoint = self.fabric.endpoints[host]
            records = [rec for rec in
                       self.involved[host] + self.bypass[host]
                       if rec.tenant["name"] in self.demand_spec["tenants"]]
            if not records:
                continue
            with self.fabric.host_domain(host):
                tracker = SloTracker(self.fabric.sim, window,
                                     name=f"{host}.slo")
                for rec in records:
                    entry = self.demand_spec["tenants"][rec.tenant["name"]]
                    target = (SloTarget(**entry["slo"])
                              if entry["slo"] else None)
                    rx = endpoint.io_arch.flows.get(rec.flow.flow_id)
                    if rx is not None:
                        tracker.watch(rec.tenant["name"], rx, target)
            self.slo_trackers[host] = tracker

    # ------------------------------------------------------------------
    # Crash / restart (repro.faults apps site)
    # ------------------------------------------------------------------
    def _stop(self, host: str, record: _FlowRecord) -> None:
        record.source.stop()
        record.server.stop()
        self.fabric.endpoints[host].host.cpu.release(record.server.core)

    def stop_involved_flow(self, host: str) -> Optional[Flow]:
        """Phase action: the newest CPU-involved flow on ``host`` goes
        quiet — source and server stop and the core is freed, but unlike
        a crash the flow stays registered with the I/O architecture."""
        records = self.involved[host]
        if not records:
            return None
        record = records.pop()
        self._stop(host, record)
        return record.flow

    def crash_involved_flow(self, host: str, index: int = 0
                            ) -> Optional[str]:
        """Fault action (``apps.crash_restart``): tear the ``index``-th
        CPU-involved flow all the way down — the architecture quiesces
        it and the sender is dropped with the app. Returns the flow's
        name for :meth:`restart_involved_flow`."""
        records = self.involved[host]
        if not records:
            return None
        record = records.pop(index % len(records))
        self._stop(host, record)
        self.fabric.endpoints[host].io_arch.unregister_flow(record.flow)
        self.fabric.senders.pop(record.flow.flow_id, None)
        self._crashed[host][record.flow.name] = record
        return record.flow.name

    def restart_involved_flow(self, host: str, name: str) -> _FlowRecord:
        """Bring a crashed flow back under the same name: it registers
        from scratch (fresh flow id, credit account, steering rule)."""
        record = self._crashed[host].pop(name)
        return self._add_tenant_flow(record.tenant, name, record.src,
                                     late_ok=True)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_measure(self, warmup: Optional[float] = None,
                    duration: Optional[float] = None
                    ) -> Dict[str, Measurement]:
        """Warm up, then measure one steady-state window per server host.

        Every window ends with a full fabric-wide reconciliation; the
        report is attached to every host's measurement and queued for
        the runner's audit collector.
        """
        if not self._built:
            self.build()
        measure = self.normal["measure"]
        sim = self.fabric.sim
        run_audited(sim, self.reconciler,
                    sim.now + (measure["warmup_us"] * US
                               if warmup is None else warmup))
        self.open_windows()
        run_audited(sim, self.reconciler,
                    sim.now + (measure["duration_us"] * US
                               if duration is None else duration))
        results = self.finish_measurements()
        if self.reconciler is not None:
            report = self.reconciler.check(now=sim.now)
            for measurement in results.values():
                measurement.audit = report.to_dict()
            record_report(report)
        return results

    # -- phase hooks (the sharded coordinator drives these directly,
    # with conservative barrier windows replacing run_audited) ----------
    def measure_horizons(self) -> tuple:
        """(warmup end, measurement end) in absolute ns from t=0."""
        measure = self.normal["measure"]
        t_warm = measure["warmup_us"] * US
        return t_warm, t_warm + measure["duration_us"] * US

    def open_windows(self) -> None:
        """Open one MeasurementWindow per (local) server host. Reads
        counters only; never schedules events or consumes sequence
        numbers, so shards may call it between barrier windows."""
        self._windows = {
            name: MeasurementWindow(endpoint, endpoint.io_arch)
            for name, endpoint in self.fabric.endpoints.items()}

    def finish_measurements(self) -> Dict[str, Measurement]:
        """Close the open windows and compute per-host metrics (audit
        report not yet attached — the single-kernel path attaches its
        local report, the shard coordinator the merged one)."""
        results: Dict[str, Measurement] = {}
        for name, window in self._windows.items():
            measurement = window.finish()
            measurement.extras.update(
                arch_extras(self.fabric.endpoints[name].io_arch))
            if self.demand_spec is not None:
                self._attach_slo(name, window, measurement)
            results[name] = measurement
        return results

    def _attach_slo(self, name: str, window: MeasurementWindow,
                    measurement: Measurement) -> None:
        """Demand-only measurement surface: admission counters plus the
        per-tenant SLO summary. Attached via ``extras`` keys and a
        dynamic ``measurement.slo`` attribute — never new dataclass
        fields, so closed-loop ``asdict`` bytes (and the goldens pinned
        on them) cannot move."""
        arch = self.fabric.endpoints[name].io_arch
        measurement.extras["offered"] = arch.rx_offered
        measurement.extras["shed"] = arch.rx_shed
        tracker = self.slo_trackers.get(name)
        if tracker is None:
            return
        summary = tracker.summary(since=window.t_start)
        measurement.slo = summary
        for tenant in sorted(summary):
            stats = summary[tenant]
            if not stats.get("windows"):
                continue
            prefix = f"slo.{tenant}."
            for key in ("goodput_mpps", "p99_us", "p999_us", "p9999_us",
                        "shed"):
                measurement.extras[prefix + key] = float(stats[key])
            measurement.extras[prefix + "ok"] = 1.0 if stats["ok"] else 0.0

    def run(self) -> Dict[str, Dict[str, Any]]:
        """Build, measure, and return JSON-safe per-host metrics (the
        ``python -m repro.scenario run`` payload)."""
        return {name: asdict(measurement)
                for name, measurement in self.run_measure().items()}


def compile_scenario(spec: Mapping[str, Any],
                     scope: Optional[Any] = None) -> TopoScenario:
    """Validate + compile ``spec`` (built, ready to ``run_measure()``).

    ``scope`` (a set of switch names) compiles a shard-local replica —
    see :mod:`repro.shard`."""
    return TopoScenario(spec, scope=scope).build()
