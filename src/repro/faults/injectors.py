"""Compile a :class:`~repro.faults.plan.FaultPlan` into injector processes.

Each spec becomes one *window process*: sleep until onset, switch the
fault on through a small seam on the target layer, sleep for the duration,
switch it off and restore the nominal configuration. The seams are
attributes the layers expose for exactly this purpose and that are
float-identity-preserving when unused (``None`` hooks, ``+ 0.0`` /
``* 1.0`` terms), so an empty or never-armed plan leaves golden digests
byte-identical.

All stochastic decisions draw from named streams of the testbed's seeded
``RngRegistry`` (``faults.<index>.<site>.<kind>`` unless the spec names
its own stream), which is what makes chaos runs bit-reproducible across
``--seed`` and ``--jobs``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .plan import FaultSpec

__all__ = ["FaultController", "install_plan"]

_Handler = Callable[["FaultController", "FaultSpec", int],
                    Tuple[Callable[[], None], Callable[[], None]]]

#: (site, kind) -> handler factory.
_HANDLERS: Dict[Tuple[str, str], _Handler] = {}  # repro: noqa=D106 -- registry, populated at import only


def _handler(site: str, kind: str):
    def register(fn: _Handler) -> _Handler:
        _HANDLERS[(site, kind)] = fn
        return fn
    return register


def _chain_hook(target, attr: str, hook):
    """Install ``hook`` on ``target.attr``, chaining any existing hook
    (first non-None verdict wins). Returns (on, off) closures; ``off``
    restores exactly the previous hook."""
    saved = []

    def on() -> None:
        prev = getattr(target, attr)
        saved.append(prev)
        if prev is None:
            setattr(target, attr, hook)
        else:
            def chained(arg):
                verdict = hook(arg)
                return verdict if verdict else prev(arg)
            setattr(target, attr, chained)

    def off() -> None:
        setattr(target, attr, saved.pop())

    return on, off


class FaultController:
    """Arms one window process per spec of a plan against a testbed."""

    def __init__(self, testbed, plan, scenario=None):
        self.testbed = testbed
        self.sim = testbed.sim
        self.plan = plan
        #: The owning scenario's per-host view (``involved`` plus
        #: crash/restart of a worker, see
        #: :class:`~repro.workloads.topo_scenario.TopoScenario`), needed
        #: only by ``apps`` faults.
        self.scenario = scenario
        self.windows_opened = 0.0
        self._procs = []
        self._armed = False

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Spawn the window processes. A second call is an error; an empty
        plan spawns nothing (zero behaviour, zero events)."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        for index, spec in enumerate(self.plan):
            factory = _HANDLERS.get((spec.site, spec.kind))
            if factory is None:
                raise ValueError(
                    f"no injector for site={spec.site!r} kind={spec.kind!r}")
            on, off = factory(self, spec, index)
            self._procs.append(self.sim.process(
                self._window(spec, on, off),
                name=f"fault-{index}-{spec.site}.{spec.kind}"))

    def _window(self, spec, on, off):
        if spec.start > 0:
            yield spec.start
        on()
        self.windows_opened += 1
        if spec.finite:
            yield spec.duration
            off()

    # ------------------------------------------------------------------
    def stream(self, spec, index: int):
        name = spec.stream or f"faults.{index}.{spec.site}.{spec.kind}"
        return self.testbed.rng.stream(name)

    def flow_id_for(self, name: Optional[str]) -> Optional[int]:
        """Resolve a spec's flow-name filter at fault-onset time (the flow
        must exist by then). None = fault applies to every flow."""
        if name is None:
            return None
        for flow in self.testbed.flows:
            if flow.name == name:
                return flow.flow_id
        raise ValueError(f"fault spec references unknown flow {name!r}")


def install_plan(testbed, plan, scenario=None) -> Optional[FaultController]:
    """Convenience: build and arm a controller; None for an empty plan."""
    if not plan:
        return None
    controller = FaultController(testbed, plan, scenario=scenario)
    controller.arm()
    return controller


# ----------------------------------------------------------------------
# net.link — packet loss / burst loss / corruption at the switch egress
# ----------------------------------------------------------------------
def _link_verdict(controller: FaultController, spec: FaultSpec,
                  index: int,
                  drop_kind: str):
    rng = controller.stream(spec, index)
    flow_name = spec.flow
    p = spec.magnitude

    def verdict(packet) -> Optional[str]:
        if flow_name is not None and packet.flow.name != flow_name:
            return None
        return drop_kind if rng.random() < p else None

    return verdict


@_handler("net.link", "loss")
def _link_loss(controller: FaultController, spec: FaultSpec,
               index: int):
    return _chain_hook(controller.testbed.port, "fault",
                       _link_verdict(controller, spec, index, "loss"))


@_handler("net.link", "corrupt")
def _link_corrupt(controller: FaultController, spec: FaultSpec,
                  index: int):
    # A corrupted frame fails its FCS and is dropped at the egress — same
    # observable effect as loss, but attributed distinctly in traces.
    return _chain_hook(controller.testbed.port, "fault",
                       _link_verdict(controller, spec, index, "corrupt"))


@_handler("net.link", "burst_loss")
def _link_burst_loss(controller: FaultController, spec: FaultSpec,
                     index: int):
    """Gilbert–Elliott two-state loss: rare transitions into a bad state
    where loss probability jumps to ``magnitude`` (defaults: p(G->B)=0.05,
    p(B->G)=0.2, good-state loss 0)."""
    rng = controller.stream(spec, index)
    flow_name = spec.flow
    p_gb = spec.param("p_good_bad", 0.05)
    p_bg = spec.param("p_bad_good", 0.2)
    good_loss = spec.param("good_loss", 0.0)
    bad_loss = spec.magnitude
    bad = [False]

    def verdict(packet) -> Optional[str]:
        if flow_name is not None and packet.flow.name != flow_name:
            return None
        if bad[0]:
            if rng.random() < p_bg:
                bad[0] = False
        elif rng.random() < p_gb:
            bad[0] = True
        p = bad_loss if bad[0] else good_loss
        return "burst_loss" if p > 0 and rng.random() < p else None

    return _chain_hook(controller.testbed.port, "fault", verdict)


# ----------------------------------------------------------------------
# hw.pcie — link retrain: stall windows and latency spikes
# ----------------------------------------------------------------------
@_handler("hw.pcie", "stall")
def _pcie_stall(controller: FaultController, spec: FaultSpec,
                index: int):
    """Collapse wire bandwidth to ``magnitude`` of nominal (0 = full stall,
    clamped to a crawl so token accounting stays finite)."""
    pcie = controller.testbed.host.pcie
    nominal = pcie.config.bandwidth
    stalled = max(nominal * spec.magnitude, nominal * 1e-6)

    def on() -> None:
        pcie.set_wire_rate(stalled)

    def off() -> None:
        pcie.set_wire_rate(nominal)

    return on, off


@_handler("hw.pcie", "latency")
def _pcie_latency(controller: FaultController, spec: FaultSpec,
                  index: int):
    """Add ``magnitude`` ns to every transaction's in-flight latency.
    Additive so overlapping windows compose and restore exactly."""
    pcie = controller.testbed.host.pcie
    extra = spec.magnitude

    def on() -> None:
        pcie.extra_latency += extra

    def off() -> None:
        pcie.extra_latency -= extra

    return on, off


# ----------------------------------------------------------------------
# hw.nic — DMA-engine stalls and descriptor drops
# ----------------------------------------------------------------------
@_handler("hw.nic", "dma_stall")
def _nic_dma_stall(controller: FaultController, spec: FaultSpec,
                   index: int):
    dma = controller.testbed.host.nic.dma
    sim = controller.sim
    if not spec.finite:
        raise ValueError("hw.nic dma_stall needs a finite duration")

    def on() -> None:
        dma.stall_until = max(dma.stall_until, sim.now + spec.duration)

    def off() -> None:
        pass  # the stall window is time-based; nothing to restore

    return on, off


@_handler("hw.nic", "descriptor_drop")
def _nic_descriptor_drop(controller: FaultController, spec: FaultSpec,
                         index: int):
    """Silently lose DMA writes with probability ``magnitude`` — the
    credit-loss scenario: CEIO consumes the credit and counts the packet
    issued, but delivery never happens."""
    dma = controller.testbed.host.nic.dma
    rng = controller.stream(spec, index)
    target = [None]

    def filt(write) -> bool:
        if target[0] is not None and write.flow_id != target[0]:
            return False
        return rng.random() < spec.magnitude

    on, off = _chain_hook(dma, "drop_filter", filt)

    def on_resolved() -> None:
        target[0] = controller.flow_id_for(spec.flow)
        on()

    return on_resolved, off


# ----------------------------------------------------------------------
# hw.cache — runtime DDIO reconfiguration
# ----------------------------------------------------------------------
@_handler("hw.cache", "ddio_reconfig")
def _cache_ddio_reconfig(controller: FaultController, spec: FaultSpec,
                         index: int):
    """Shrink the DDIO partition to ``magnitude`` of nominal (capacity for
    the fully-associative model, ways for the set-associative one),
    evicting whatever no longer fits; restore on window close."""
    llc = controller.testbed.host.llc
    if hasattr(llc, "set_ddio_capacity"):
        nominal = llc.capacity

        def on() -> None:
            llc.set_ddio_capacity(int(nominal * spec.magnitude))

        def off() -> None:
            llc.set_ddio_capacity(nominal)
    else:
        nominal_ways = llc.ddio_ways

        def on() -> None:
            llc.set_ddio_ways(
                max(1, int(round(nominal_ways * spec.magnitude))))

        def off() -> None:
            llc.set_ddio_ways(nominal_ways)

    return on, off


# ----------------------------------------------------------------------
# hw.cpu — core preemption / slowdown windows
# ----------------------------------------------------------------------
@_handler("hw.cpu", "slowdown")
def _cpu_slowdown(controller: FaultController, spec: FaultSpec,
                  index: int):
    """Multiply execution time on the targeted core (param ``core``; all
    cores when absent) by ``magnitude`` — e.g. 4.0 models a core losing
    3/4 of its cycles to a preempting tenant."""
    cpu = controller.testbed.host.cpu
    core_idx = spec.param("core")
    cores = (cpu.cores if core_idx is None
             else [cpu.cores[int(core_idx)]])
    saved = []

    def on() -> None:
        for core in cores:
            saved.append(core.slowdown)
            core.slowdown = core.slowdown * spec.magnitude

    def off() -> None:
        for core in reversed(cores):
            core.slowdown = saved.pop()

    return on, off


# ----------------------------------------------------------------------
# apps — crash/restart of a worker
# ----------------------------------------------------------------------
@_handler("apps", "crash_restart")
def _apps_crash_restart(controller: FaultController, spec: FaultSpec,
                        index: int):
    """Kill one CPU-involved worker at onset (its flow is unregistered —
    the quiesce path) and restart it under the same name when the window
    closes. Param ``worker`` picks the victim by position (default 0);
    ``flow`` picks it by name."""
    scenario = controller.scenario
    if scenario is None:
        raise ValueError(
            "apps.crash_restart needs a plan armed by a compiled scenario "
            "(compile_scenario), which owns the workers it restarts")
    crashed = []

    def on() -> None:
        index_ = int(spec.param("worker", 0))
        if spec.flow is not None:
            names = [entry[0].name for entry in scenario.involved]
            index_ = names.index(spec.flow)
        name = scenario.crash_involved_flow(index_)
        crashed.append(name)

    def off() -> None:
        name = crashed.pop()
        if name is not None:
            scenario.restart_involved_flow(name)

    return on, off
