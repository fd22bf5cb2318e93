"""Canonical topology builders: two-host, star, leaf-spine, fat-tree.

Every builder returns a plain :class:`~repro.topo.graph.Topology`; link
attributes default to the paper's testbed values (200 Gbps, 0.6 µs,
2 MB buffer, 300 KB ECN threshold) and can be overridden uniformly via
keyword arguments.

``two_host()`` is the paper's two-server testbed — one client, one
server named ``"host"``, one ToR whose server-facing egress is named
``"tor"``, a zero-delay client uplink so the forward path is a single
0.6 µs contended hop and the reverse path a single 0.6 µs fixed delay —
and sets ``legacy_names`` so the compiled fabric keeps the unprefixed
RNG stream and audit account names every single-host experiment uses.
"""

from __future__ import annotations

from typing import Optional

from .graph import (DEFAULT_BUFFER, DEFAULT_DELAY, DEFAULT_ECN_THRESHOLD,
                    DEFAULT_RATE, HostSpec, LinkSpec, Topology)

__all__ = ["two_host", "star", "leaf_spine", "fat_tree"]


def _edge(a: str, b: str, rate: float, delay: float,
          ack_delay: Optional[float], buffer: int, ecn: int,
          name: str = "") -> LinkSpec:
    return LinkSpec(a, b, rate=rate, delay=delay, ack_delay=ack_delay,
                    buffer=buffer, ecn_threshold=ecn, name=name)


def two_host(rate: float = DEFAULT_RATE, delay: float = DEFAULT_DELAY,
             ack_delay: Optional[float] = None,
             buffer: int = DEFAULT_BUFFER,
             ecn_threshold: int = DEFAULT_ECN_THRESHOLD) -> Topology:
    """The paper's testbed: ``client -> tor -> host``.

    The client uplink carries zero delay (senders inject straight into
    the ToR egress queue); the server link carries the full one-way
    delay and, when ``ack_delay`` is None, a symmetric reverse path.
    """
    return Topology(
        hosts=[HostSpec("client"), HostSpec("host", server=True)],
        switches=["tor"],
        links=[
            _edge("client", "tor", rate, 0.0, 0.0, buffer, ecn_threshold,
                  name="uplink"),
            _edge("tor", "host", rate, delay, ack_delay, buffer,
                  ecn_threshold, name="tor"),
        ],
        legacy_names=True,
    )


def star(n_clients: int, n_servers: int = 1,
         rate: float = DEFAULT_RATE, delay: float = DEFAULT_DELAY,
         ack_delay: Optional[float] = None, buffer: int = DEFAULT_BUFFER,
         ecn_threshold: int = DEFAULT_ECN_THRESHOLD) -> Topology:
    """``n_clients`` senders and ``n_servers`` receivers on one ToR —
    the incast/fan-in topology. Client uplinks are zero-delay (as in
    ``two_host``); each server link is a contended 0.6 µs egress."""
    if n_clients < 1 or n_servers < 1:
        raise ValueError("star() needs at least one client and one server")
    hosts = ([HostSpec(f"c{i}") for i in range(n_clients)]
             + [HostSpec(f"s{i}", server=True) for i in range(n_servers)])
    links = [_edge(f"c{i}", "tor", rate, 0.0, 0.0, buffer, ecn_threshold)
             for i in range(n_clients)]
    links += [_edge("tor", f"s{i}", rate, delay, ack_delay, buffer,
                    ecn_threshold) for i in range(n_servers)]
    return Topology(hosts=hosts, switches=["tor"], links=links)


def leaf_spine(leaves: int, spines: int, hosts_per_leaf: int,
               servers_per_leaf: int = 1,
               rate: float = DEFAULT_RATE, delay: float = DEFAULT_DELAY,
               ack_delay: Optional[float] = None,
               buffer: int = DEFAULT_BUFFER,
               ecn_threshold: int = DEFAULT_ECN_THRESHOLD,
               fabric_rate: Optional[float] = None) -> Topology:
    """A two-tier Clos: every leaf connects to every spine.

    The first ``servers_per_leaf`` hosts under each leaf are servers
    (``l<i>s<j>``), the rest clients (``l<i>c<j>``). ``fabric_rate``
    overrides the leaf-spine link rate (defaults to the edge rate).
    """
    if leaves < 1 or spines < 1:
        raise ValueError("leaf_spine() needs at least one leaf and spine")
    if not 0 <= servers_per_leaf <= hosts_per_leaf:
        raise ValueError("servers_per_leaf must be within hosts_per_leaf")
    up_rate = fabric_rate if fabric_rate is not None else rate
    hosts = []
    links = []
    switches = [f"leaf{i}" for i in range(leaves)]
    switches += [f"spine{j}" for j in range(spines)]
    for i in range(leaves):
        for j in range(hosts_per_leaf):
            if j < servers_per_leaf:
                name = f"l{i}s{j}"
                hosts.append(HostSpec(name, server=True))
                links.append(_edge(f"leaf{i}", name, rate, delay, ack_delay,
                                   buffer, ecn_threshold))
            else:
                name = f"l{i}c{j}"
                hosts.append(HostSpec(name))
                links.append(_edge(name, f"leaf{i}", rate, 0.0, 0.0, buffer,
                                   ecn_threshold))
    for i in range(leaves):
        for j in range(spines):
            links.append(_edge(f"leaf{i}", f"spine{j}", up_rate, delay,
                               ack_delay, buffer, ecn_threshold))
    return Topology(hosts=hosts, switches=switches, links=links)


def fat_tree(k: int, hosts_per_edge: int = 1, servers_per_pod: int = 1,
             rate: float = DEFAULT_RATE, delay: float = DEFAULT_DELAY,
             ack_delay: Optional[float] = None,
             buffer: int = DEFAULT_BUFFER,
             ecn_threshold: int = DEFAULT_ECN_THRESHOLD) -> Topology:
    """A k-ary fat tree (k even): k pods of k/2 edge + k/2 aggregation
    switches, (k/2)^2 core switches, ``hosts_per_edge`` hosts per edge
    switch. The first ``servers_per_pod`` hosts of each pod are servers.
    """
    if k < 2 or k % 2:
        raise ValueError("fat_tree() needs an even k >= 2")
    half = k // 2
    if not 0 <= servers_per_pod <= half * hosts_per_edge:
        raise ValueError("servers_per_pod exceeds hosts per pod")
    hosts = []
    links = []
    switches = []
    for c in range(half * half):
        switches.append(f"core{c}")
    for p in range(k):
        for e in range(half):
            switches.append(f"p{p}edge{e}")
        for a in range(half):
            switches.append(f"p{p}agg{a}")
    for p in range(k):
        served = 0
        for e in range(half):
            edge = f"p{p}edge{e}"
            for h in range(hosts_per_edge):
                idx = e * hosts_per_edge + h
                if served < servers_per_pod:
                    name = f"p{p}s{idx}"
                    hosts.append(HostSpec(name, server=True))
                    links.append(_edge(edge, name, rate, delay, ack_delay,
                                       buffer, ecn_threshold))
                    served += 1
                else:
                    name = f"p{p}c{idx}"
                    hosts.append(HostSpec(name))
                    links.append(_edge(name, edge, rate, 0.0, 0.0, buffer,
                                       ecn_threshold))
            for a in range(half):
                links.append(_edge(edge, f"p{p}agg{a}", rate, delay,
                                   ack_delay, buffer, ecn_threshold))
        for a in range(half):
            for c in range(half):
                links.append(_edge(f"p{p}agg{a}", f"core{a * half + c}",
                                   rate, delay, ack_delay, buffer,
                                   ecn_threshold))
    return Topology(hosts=hosts, switches=switches, links=links)
