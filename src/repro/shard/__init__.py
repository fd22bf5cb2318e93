"""Sharded conservative parallel DES (see ``docs/SHARDING.md``).

A big fabric scenario normally executes on one event kernel — one
:class:`~repro.sim.Simulator` draining one calendar — which caps
throughput at a single core. This package partitions the fabric at
switch boundaries (:func:`repro.topo.partition`) into N *shard kernels*
(:class:`~repro.shard.kernel.ShardKernel`), each a scoped scenario
replica with its own simulator, host-prefixed RNG streams, and audit
ledger, connected by channels that carry boundary-link packets and ACKs
together with their exact calendar keys.

Synchronisation is conservative: the fixed propagation delay of the cut
links bounds how fast causality crosses a boundary, so all kernels can
run ``lookahead`` ns past the last barrier without hearing from each
other (:func:`~repro.shard.coordinator.run_sharded`). Because every
cross-shard event replays under the identical ``(time, composite seq)``
key the single kernel would have used, sharded measurements — and the
``python -m repro.scenario run --shards N`` stdout — are byte-identical
to the single-kernel run at the same seed, for any shard count.

Execution modes: ``inline`` (all kernels in this process; the
deterministic reference) and ``process`` (the heaviest cell in the
coordinator, one worker process per other cell, with runlog
heartbeats; :mod:`repro.runner.shardpool`).
"""

from .coordinator import InlineShards, run_sharded
from .kernel import ShardKernel

__all__ = ["InlineShards", "ShardKernel", "run_sharded"]
