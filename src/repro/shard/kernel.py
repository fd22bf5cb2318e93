"""One shard of a conservative parallel DES run.

A :class:`ShardKernel` wraps a scoped :class:`~repro.workloads.
topo_scenario.TopoScenario` replica: the *whole* scenario build runs
(flow ordinals, ECMP draws, RNG stream positions — the global
bookkeeping every shard must agree on), but live components exist only
for the shard's own cell of the :class:`~repro.topo.partition.ShardPlan`.
Boundary links are rewired into channel messages via
:meth:`repro.topo.Fabric.attach_channels`:

- an outbound message is ``(dst_shard, kind, when, seq, payload)`` where
  ``(when, seq)`` is the exact calendar key the emitting kernel consumed
  (``seq`` is the composite domain sequence number, see
  :data:`repro.sim.engine.DOMAIN_SHIFT`);
- ``kind == "pkt"`` carries ``(src_switch, dst_switch, snapshot)`` for a
  boundary-link packet, replayed by the peer's cut-ingress dispatch;
- ``kind == "ack"`` carries ``(flow_ordinal, pkt_seq, marked)`` for an
  ACK whose client lives in a peer shard.

Because both halves execute under the identical key, the union of all
shards' event sequences is exactly the single kernel's calendar order —
which is what makes sharded measurements byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from ..audit import record_report
from ..topo.partition import ShardPlan
from ..workloads.scenarios import AUDIT_BARRIER_NS
from ..workloads.topo_scenario import TopoScenario

__all__ = ["ShardKernel"]


class ShardKernel:
    """Shard ``index`` of ``plan``: a scoped scenario replica plus its
    channel outbox, driven in barrier windows by a coordinator (the
    inline one in :mod:`repro.shard.coordinator` or the process pool in
    :mod:`repro.runner.shardpool`)."""

    def __init__(self, normal: Mapping[str, Any], plan: ShardPlan,
                 index: int):
        self.plan = plan
        self.index = index
        self.scenario = TopoScenario(
            normal, scope=set(plan.cells[index])).build()
        self.fabric = self.scenario.fabric
        self.sim = self.fabric.sim
        #: Messages emitted since the last :meth:`advance` drain.
        self.outbox: List[Tuple] = []
        self._next_audit = float(AUDIT_BARRIER_NS)
        self.fabric.attach_channels(self._emit_packet, self._emit_ack)

    # -- channel emitters (installed on the scoped fabric) --------------
    def _emit_packet(self, src_sw: str, dst_sw: str, when: float,
                     seq: int, snap: tuple) -> None:
        """Queue a boundary-link packet for the shard owning ``dst_sw``."""
        self.outbox.append((self.plan.shard_of_switch[dst_sw], "pkt",
                            when, seq, (src_sw, dst_sw, snap)))

    def _emit_ack(self, ordinal: int, when: float, seq: int,
                  pkt_seq: int, marked: bool) -> None:
        """Queue an ACK for the shard owning the flow's client host."""
        flow = self.fabric.flows_by_ordinal[ordinal]
        src = self.fabric.flow_sources[flow.flow_id]
        self.outbox.append((self.plan.shard_of_host[src], "ack",
                            when, seq, (ordinal, pkt_seq, marked)))

    # -- coordinator protocol -------------------------------------------
    @property
    def now(self) -> float:
        """This kernel's simulated time, ns."""
        return self.sim.now

    @property
    def events_executed(self) -> int:
        """Events executed by bounded-horizon windows so far."""
        return self.sim.events_executed

    def inject(self, msg: Tuple) -> None:
        """Insert a peer shard's channel message into the local calendar
        under its original ``(when, seq)`` key."""
        _dst, kind, when, seq, payload = msg
        if kind == "pkt":
            src_sw, dst_sw, snap = payload
            self.fabric.inject_packet(src_sw, dst_sw, when, seq,
                                      tuple(snap))
        else:
            ordinal, pkt_seq, marked = payload
            self.fabric.inject_ack(ordinal, when, seq, pkt_seq, marked)

    def advance(self, horizon: float, inclusive: bool = False,
                inbox: Iterable[Tuple] = ()) -> Tuple[int, List[Tuple]]:
        """Inject ``inbox`` (the peers' messages for this window), run
        one conservative window up to ``horizon`` (exclusive, or
        inclusive at a phase's final barrier) and drain the outbox.
        Returns ``(events executed, emitted messages)``."""
        for msg in inbox:
            self.inject(msg)
        executed = self.sim.run_until(horizon, inclusive=inclusive)
        if self.sim.debug and self.scenario.reconciler is not None:
            self._debug_barrier()
        out, self.outbox = self.outbox, []
        return executed, out

    def _debug_barrier(self) -> None:
        """Mirror the single kernel's periodic conservation checks under
        ``REPRO_SIM_DEBUG=1``: once per crossed 50 µs boundary, evaluate
        the ``barrier_safe`` local accounts (cross-shard partial accounts
        are merged at end of run instead). Checks never schedule events,
        so they cannot perturb byte-identity."""
        now = self.sim.now
        if now < self._next_audit:
            return
        report = self.scenario.reconciler.check(now=now, barrier_only=True)
        if not report.ok:
            record_report(report)
        step = float(AUDIT_BARRIER_NS)
        self._next_audit = (now // step + 1.0) * step

    def open_windows(self) -> None:
        """Open measurement windows on the local endpoints (counter
        reads only — safe between barrier windows)."""
        self.scenario.open_windows()

    def finish(self) -> Tuple[Dict[str, Dict[str, Any]],
                              List[Dict[str, Any]],
                              List[Dict[str, Any]], int]:
        """Close windows and export this shard's results: JSON-safe
        per-host metric dicts (audit not yet attached), the locally
        checked audit entries, the cross-shard partial snapshots, and
        the events-executed total."""
        results = {name: asdict(measurement)
                   for name, measurement
                   in self.scenario.finish_measurements().items()}
        reconciler = self.scenario.reconciler
        report = reconciler.check(now=self.sim.now)
        return (results, report.entries, reconciler.partial_snapshots(),
                self.events_executed)
