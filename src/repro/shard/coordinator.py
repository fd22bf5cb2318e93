"""Conservative barrier-window execution of a sharded scenario.

:func:`run_sharded` is the sharded twin of
:meth:`repro.workloads.topo_scenario.TopoScenario.run`: it partitions
the scenario's topology (:func:`repro.topo.partition`), builds one
:class:`~repro.shard.kernel.ShardKernel` per cell, and advances them in
lockstep windows of the plan's ``lookahead`` — the minimum propagation
delay across any cut link, below which no causal influence can cross a
shard boundary.

Each phase (warm-up, then measurement) runs the same loop::

    H = min(now + lookahead, T)
    advance every shard to H   (exclusive below T, inclusive at T)
    exchange channel messages  (injected under their original keys)
    now = H; stop when an inclusive pass injected nothing due <= T

Termination is guaranteed because a message emitted at time ``t``
arrives no earlier than ``t + lookahead``: once every kernel has
inclusively drained through ``T``, new messages are due strictly after
``T`` within at most two extra passes. Messages due past ``T`` stay in
the receivers' calendars for the next phase — exactly where the single
kernel's ``call_later`` entries would be.

The measurement windows, the audit merge
(:func:`repro.audit.merge_audit`), and the per-host result dicts are
assembled so the returned mapping serialises byte-identically to the
single-kernel run's at the same seed — the correctness gate pinned by
``tests/shard/test_byte_identity.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..audit import merge_audit, record_report
from ..scenario import fault_plan_of, validate
from ..scenario.schema import build_topology
from ..sim.units import US
from ..topo.partition import ShardPlan, partition
from ..workloads.topo_scenario import TopoScenario
from .channel import ChannelFaultController
from .kernel import ShardKernel

__all__ = ["InlineShards", "run_sharded"]


class InlineShards:
    """The reference shard executor: every kernel lives in this process
    and advances sequentially. Process-global id counters (flow ids,
    message ids, I/O buffer keys) interleave across kernels here and
    carry on from earlier runs in the process. That is safe because
    every attempt builds every kernel from one process state and runs
    it from t = 0, so no run mixes two id histories (a receiver that
    reassembles by message id sees each message under one id)."""

    def __init__(self, normal: Mapping[str, Any], plan: ShardPlan):
        self.kernels = [ShardKernel(normal, plan, i)
                        for i in range(plan.n_shards)]

    def advance(self, horizon: float, inclusive: bool,
                inboxes: List[List[Tuple]]) -> List[List[Tuple]]:
        """Inject each kernel's inbox, run one window on every kernel,
        and return the per-kernel outboxes."""
        return [kernel.advance(horizon, inclusive, inbox)[1]
                for kernel, inbox in zip(self.kernels, inboxes)]

    def open_windows(self) -> None:
        """Open measurement windows on every kernel."""
        for kernel in self.kernels:
            kernel.open_windows()

    def finish(self) -> List[Tuple]:
        """Collect every kernel's ``(results, entries, partials,
        events)`` export."""
        return [kernel.finish() for kernel in self.kernels]

    def close(self) -> None:
        """Nothing to tear down for in-process kernels."""


def _barrier_run(executor, n: int, lookahead: float, start: float,
                 target: float, inbox: List[List[Tuple]],
                 channel: Optional[ChannelFaultController] = None
                 ) -> Tuple[int, float, List[List[Tuple]]]:
    """Advance all shards from ``start`` to ``target`` in conservative
    windows; returns ``(rounds, now, undelivered inbox)`` — the inbox
    holds only messages due strictly after ``target``, which the next
    phase's first window delivers. ``channel`` (the compiled
    ``net.channel`` fault filters) sits between outbox drain and inbox
    fill: it may drop a message or rewrite its due time, *before* the
    pending count so a drop never forces an extra round."""
    now = start
    rounds = 0
    while True:
        horizon = min(now + lookahead, target)
        inclusive = horizon >= target
        outs = executor.advance(horizon, inclusive, inbox)
        inbox = [[] for _ in range(n)]
        pending = 0
        for out in outs:
            for msg in out:
                if channel is not None:
                    msg = channel.apply(msg)
                    if msg is None:
                        continue
                inbox[msg[0]].append(msg)
                if msg[2] <= target:
                    pending += 1
        rounds += 1
        now = horizon
        if inclusive and pending == 0:
            return rounds, now, inbox


def _recovering(normal: Mapping[str, Any], plan: ShardPlan,
                config: Any, attempt):
    """Run ``attempt`` on fresh process pools until one completes. A
    worker death (:class:`~repro.runner.shardpool.ShardDied`) is charged
    to the dead shard's ``max_restarts`` budget and reruns the whole run
    from t = 0: a run is a pure function of its spec, and every attempt
    builds every kernel from one process state, so the rerun prints what
    an undisturbed run does. One journal spans the attempts, so a rerun
    that drifts fails at the first window where its event counts
    differ, and each kill plan entry fires once."""
    from ..runner.shardjournal import ShardJournal
    from ..runner.shardpool import (ProcessShards, ShardDied,
                                    ShardPoolConfig, log_event)
    config = config or ShardPoolConfig()
    journal = ShardJournal()
    restarts = [0] * plan.n_shards
    while True:
        try:
            return attempt(ProcessShards(normal, plan, config, journal))  # repro: noqa=D111 -- pool wall-clock is worker-liveness supervision only; simulated state never reads it
        except ShardDied as died:
            shard = died.shard
            restarts[shard] += 1
            if restarts[shard] > config.max_restarts:
                detail = (f"{died.reason} (restart budget of "
                          f"{config.max_restarts} exhausted)")
                log_event(config.runlog, {"event": "shard_failed",  # repro: noqa=D111 -- runlog timestamps only; simulated state never reads them
                                          "shard": shard, "error": detail})
                raise RuntimeError(
                    f"shard {shard} failed: {detail}") from died
            log_event(config.runlog, {"event": "shard_restarted",  # repro: noqa=D111 -- runlog timestamps only; simulated state never reads them
                                      "shard": shard,
                                      "attempt": restarts[shard],
                                      "reason": died.reason})


def run_sharded(spec: Mapping[str, Any], shards: int,
                mode: str = "inline", pool_config: Any = None,
                stats: Optional[Dict[str, Any]] = None
                ) -> Dict[str, Dict[str, Any]]:
    """Run ``spec`` partitioned into (at most) ``shards`` kernels.

    Returns the ``{host: metrics}`` mapping of
    :meth:`TopoScenario.run`, byte-identical as sorted JSON to the
    single-kernel result at the same seed. ``mode`` selects the inline
    reference executor or the process pool — the heaviest cell in this
    process, a worker process per other cell
    (:class:`repro.runner.shardpool.ProcessShards`, configured by
    ``pool_config``), rerun from t = 0 when a worker dies. ``stats``,
    when given a dict, is filled with the partition summary,
    barrier-round count, and per-shard event counts (the scaling metric
    of ``benchmarks/test_shard_scaling.py``).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if mode not in ("inline", "process"):
        raise ValueError(f"unknown shard mode {mode!r}")
    normal = validate(spec)
    topology = build_topology(normal)
    plan = partition(topology, shards)
    if stats is not None:
        stats["plan"] = plan.describe()
    if plan.n_shards == 1:
        # Unsplittable (single-switch) or explicitly unsharded: the
        # plain scenario run IS the shard run, trivially identical.
        results = TopoScenario(normal).run()
        if stats is not None:
            stats["rounds"] = 0
            stats["events"] = None
        return results

    channel_specs, _host_faults = fault_plan_of(normal).split_channel()
    measure = normal["measure"]
    t_warm = measure["warmup_us"] * US
    t_end = t_warm + measure["duration_us"] * US
    n = plan.n_shards

    def attempt(executor) -> Tuple[List[Tuple], int,
                                   Optional[ChannelFaultController]]:
        """Run both phases on ``executor`` from t = 0, always closing
        it. The channel controller is built per attempt: its RNG
        streams must start where a first attempt's do."""
        channel = (ChannelFaultController(channel_specs, normal["seed"],
                                          topology)
                   if channel_specs else None)
        try:
            inbox: List[List[Tuple]] = [[] for _ in range(n)]
            rounds, now, inbox = _barrier_run(
                executor, n, plan.lookahead, 0.0, t_warm, inbox,
                channel=channel)
            executor.open_windows()
            more, now, inbox = _barrier_run(
                executor, n, plan.lookahead, now, t_end, inbox,
                channel=channel)
            return executor.finish(), rounds + more, channel
        finally:
            executor.close()

    if mode == "inline":
        finals, rounds, channel = attempt(InlineShards(normal, plan))
    else:
        finals, rounds, channel = _recovering(normal, plan, pool_config,
                                              attempt)

    host_results: Dict[str, Dict[str, Any]] = {}
    entries_per: List[List[Dict[str, Any]]] = []
    partials_per: List[List[Dict[str, Any]]] = []
    events: List[int] = []
    for results, entries, partials, executed in finals:
        host_results.update(results)
        entries_per.append(entries)
        partials_per.append(partials)
        events.append(executed)

    if channel is not None:
        # After the shard partials: the real egress half must be the
        # first-seen partial of each account (it carries the equation's
        # bounded/tolerance parameters).
        partials_per.append(channel.partial_snapshots(t_end))

    report = merge_audit(t_end, entries_per, partials_per)
    audit_dict = report.to_dict()
    ordered: Dict[str, Dict[str, Any]] = {}
    for spec_host in topology.server_hosts:
        metrics = host_results[spec_host.name]
        metrics["audit"] = audit_dict
        ordered[spec_host.name] = metrics
    record_report(report)
    if stats is not None:
        stats["rounds"] = rounds
        stats["events"] = events
        if channel is not None:
            stats["channel"] = channel.describe()
    return ordered
