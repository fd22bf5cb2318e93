"""The shard command journal: replayable history of a sharded run.

A conservative barrier run drives every shard kernel through a pure
command stream — ``("advance", horizon, inclusive, inbox)`` windows
plus one ``("open",)`` phase marker — and a shard kernel is a pure
function of ``(scenario, plan, index)`` plus that stream: the inbox
messages carry their exact calendar keys, so replaying the journaled
commands against a freshly built kernel reproduces the original
byte-for-byte (the argument pinned by ``tests/shard/``'s identity
suite and written up in docs/SHARDING.md).

:class:`ShardJournal` records, per shard, every command the worker
*acknowledged* — the coordinator appends only after receiving the
reply, so an in-flight command is never journaled and is simply
re-issued after a replay. Each entry is the command's *frame*: the
exact ``bytes`` the coordinator wrote to the worker's pipe, pickled
once with :class:`multiprocessing.reduction.ForkingPickler` (the
pickler ``Connection.send`` uses), so the worker's plain ``recv()``
reads it and a replay sends the same bytes verbatim. A frame costs a
few dozen bytes per inbox message, where the live command tuple kept
every packet snapshot as Python objects. :class:`~repro.runner.
shardpool.ProcessShards` uses this to resurrect a dead worker mid-run.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["ShardJournal"]


class ShardJournal:
    """Per-shard ordered log of acknowledged command frames."""

    def __init__(self, n_shards: int):
        self.n_shards = n_shards
        self._frames: List[List[bytes]] = [[] for _ in range(n_shards)]

    def record(self, shard: int, frame: bytes) -> None:
        """Append one acknowledged command frame to ``shard``'s log."""
        self._frames[shard].append(frame)

    def frames(self, shard: int) -> Tuple[bytes, ...]:
        """``shard``'s acknowledged command frames, in issue order."""
        return tuple(self._frames[shard])
