"""Deterministic topology partitioning for sharded parallel DES.

A :class:`ShardPlan` splits a :class:`~repro.topo.graph.Topology` into
``n`` *cells* — connected sets of switches, each switch carrying its
attached hosts — such that the only edges joining different cells are
inter-switch links. Those cut links are the conservative synchronisation
boundaries: their fixed propagation delays bound how far causality can
cross per unit of simulated time, so each cell can run ``lookahead`` ns
past the last barrier without hearing from the others (see
``docs/SHARDING.md``).

The partition is a pure function of ``(topology, shards)``:

- the *atom* is a switch plus its attached hosts (hosts are never
  separated from their attachment switch — host uplinks may have zero
  delay and therefore zero lookahead);
- an atom's *weight* is the number of flow endpoints under its switch
  (``Topology.flow_endpoints``: each tenant flow counts once at its
  server's switch and once at its source's), or its host count when the
  topology carries no flows;
- seeds are the ``shards`` heaviest atoms (ties by switch name); cells
  then grow greedily — the lightest cell claims its lowest-named
  unassigned neighbour — which keeps cells connected and balanced by
  weight with fully sorted tie-breaks;
- requesting more shards than there are switches clamps to one switch
  per shard (a single-switch topology is unsplittable and yields one
  cell, making sharded execution degenerate-but-correct there).

Event-order determinism does **not** depend on the partition: calendar
keys are composite ``(time, domain, count)`` with one domain per switch
(:data:`repro.sim.engine.DOMAIN_SHIFT`), so any partition — including
the trivial one — replays the same global order. The partition only
decides which kernel executes which domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .graph import LinkSpec, Topology

__all__ = ["ShardPlan", "partition"]


@dataclass(frozen=True)
class ShardPlan:
    """The outcome of partitioning a topology into shard cells."""

    #: Cells in shard-index order; each cell is a tuple of switch names.
    cells: Tuple[Tuple[str, ...], ...]
    #: switch name -> shard index.
    shard_of_switch: Dict[str, int]
    #: host name -> shard index (its attachment switch's shard).
    shard_of_host: Dict[str, int]
    #: switch name -> event domain (index in ``topology.switches``).
    domain_of_switch: Dict[str, int]
    #: Inter-switch links joining different cells, declaration order.
    cut_links: Tuple[LinkSpec, ...]
    #: Conservative window, ns: min over cut links of
    #: ``min(delay, reverse_delay)``; ``inf`` when nothing is cut.
    lookahead: float
    #: Per cell, in shard-index order: the summed weight of its atoms.
    loads: Tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.cells)

    @property
    def heaviest(self) -> int:
        """The index of the cell with the largest load (ties to the
        lowest index)."""
        return max(range(self.n_shards), key=lambda i: (self.loads[i], -i))

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary (for runlogs and benchmark records)."""
        return {
            "shards": self.n_shards,
            "cells": [list(cell) for cell in self.cells],
            "loads": list(self.loads),
            "cut_links": [link.name for link in self.cut_links],
            "lookahead_ns": self.lookahead,
        }


def partition(topology: Topology, shards: int) -> ShardPlan:
    """Split ``topology`` into at most ``shards`` connected cells.

    Deterministic for a given ``(topology, shards)``; every host lands in
    exactly one cell, and only switch-switch links are ever cut.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    switches = list(topology.switches)
    n = min(shards, len(switches))

    weight = {sw: 0 for sw in switches}
    for host in topology.hosts:
        attach, _ = topology.attachment(host)
        weight[attach] += (topology.flow_endpoints.get(host, 0)
                           if topology.flow_endpoints else 1)

    if n == 1:
        cells: List[List[str]] = [switches]
        loads = [sum(weight.values())]
    else:
        # Heaviest atoms seed the cells; ties break on switch name.
        seeds = sorted(switches, key=lambda sw: (-weight[sw], sw))[:n]
        assigned: Dict[str, int] = {sw: i for i, sw in enumerate(seeds)}
        cells = [[sw] for sw in seeds]
        loads = [weight[sw] for sw in seeds]
        remaining = len(switches) - n
        while remaining:
            # Lightest cell first (ties by shard index), claiming its
            # lowest-named unassigned neighbour keeps growth balanced
            # and cells connected.
            order = sorted(range(n), key=lambda i: (loads[i], i))
            grown = False
            for i in order:
                frontier = sorted(
                    nbr
                    for sw in cells[i]
                    for nbr in topology.switch_neighbors(sw)
                    if nbr not in assigned)
                if not frontier:
                    continue
                pick = frontier[0]
                assigned[pick] = i
                cells[i].append(pick)
                loads[i] += weight[pick]
                remaining -= 1
                grown = True
                break
            if not grown:  # pragma: no cover - connected graph invariant
                raise RuntimeError("partition failed to grow: topology "
                                   "switch graph is disconnected")

    shard_of_switch: Dict[str, int] = {}
    for i, cell in enumerate(cells):
        for sw in cell:
            shard_of_switch[sw] = i
    shard_of_host = {}
    for host in topology.hosts:
        attach, _ = topology.attachment(host)
        shard_of_host[host] = shard_of_switch[attach]
    domain_of_switch = {sw: i for i, sw in enumerate(topology.switches)}

    cut = tuple(link for link in topology.switch_links()
                if shard_of_switch[link.a] != shard_of_switch[link.b])
    horizon = float("inf")
    for link in cut:
        if link.delay == 0 or link.reverse_delay == 0:
            raise ValueError(
                f"topology.links[{link.name}]: cut link has a zero-delay "
                "direction; conservative sharding needs positive lookahead")
        horizon = min(horizon, link.delay, link.reverse_delay)

    return ShardPlan(
        cells=tuple(tuple(cell) for cell in cells),
        shard_of_switch=shard_of_switch,
        shard_of_host=shard_of_host,
        domain_of_switch=domain_of_switch,
        cut_links=cut,
        lookahead=horizon,
        loads=tuple(loads),
    )
