"""Topology graphs: hosts, switches, and attributed links.

A :class:`Topology` is pure data — a validated graph of host and switch
nodes joined by :class:`LinkSpec` edges carrying per-link rate,
propagation delay, reverse (ACK) delay, buffer size, and ECN threshold.
Compilation into a live simulation (one :class:`~repro.sim.Simulator`,
one :class:`~repro.sim.RngRegistry`, one ``SwitchPort`` per used egress)
is :mod:`repro.topo.fabric`'s job; this module never touches the
simulator, so topologies can be built, validated, serialised, and routed
without side effects.

Routing is deterministic: per destination host, a BFS over the switch
graph yields shortest-path next-hop candidate lists (sorted by switch
name); equal-cost ties are broken per flow by the fabric's registration
counter, never by hashing ids that depend on process history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..net.fabric import (DEFAULT_BUFFER, DEFAULT_DELAY,
                          DEFAULT_ECN_THRESHOLD, DEFAULT_RATE)

__all__ = ["HostSpec", "LinkSpec", "Topology"]


@dataclass(frozen=True)
class HostSpec:
    """One end host. ``server`` hosts carry a full receiver stack (Host
    hardware model + I/O architecture); non-server hosts are traffic
    sources only (their transport state lives in ``DctcpSender``)."""

    name: str
    server: bool = False

    def __post_init__(self):
        if not self.name or "." in self.name or "/" in self.name:
            raise ValueError(
                f"host name {self.name!r} must be non-empty and must not "
                "contain '.' or '/' (it prefixes RNG stream and audit "
                "account names)")


@dataclass(frozen=True)
class LinkSpec:
    """One undirected edge. ``delay`` is the forward (data) propagation
    delay; ``ack_delay`` is the reverse (ACK) contribution and defaults
    to ``delay`` (symmetric path) when ``None``. ``rate`` / ``buffer`` /
    ``ecn_threshold`` parameterise the egress :class:`SwitchPort` on the
    switch side of the link."""

    a: str
    b: str
    rate: float = DEFAULT_RATE
    delay: float = DEFAULT_DELAY
    ack_delay: Optional[float] = None
    buffer: int = DEFAULT_BUFFER
    ecn_threshold: int = DEFAULT_ECN_THRESHOLD
    name: str = ""

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"link {self.endpoints}: rate must be positive")
        if self.delay < 0:
            raise ValueError(f"link {self.endpoints}: delay must be >= 0")
        if self.ack_delay is not None and self.ack_delay < 0:
            raise ValueError(
                f"link {self.endpoints}: ack_delay must be >= 0")
        if self.buffer <= 0:
            raise ValueError(f"link {self.endpoints}: buffer must be positive")
        if self.ecn_threshold < 0:
            raise ValueError(
                f"link {self.endpoints}: ecn_threshold must be >= 0")

    @property
    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    @property
    def reverse_delay(self) -> float:
        """The reverse-path (ACK) delay contribution of this link."""
        return self.delay if self.ack_delay is None else self.ack_delay

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of link "
                         f"{self.endpoints}")


class Topology:
    """A validated multi-host topology.

    Invariants enforced at construction:

    - node names are unique across hosts and switches;
    - every link joins two existing nodes, host—host links are rejected
      (hosts attach through a switch, as in the physical testbed);
    - every host has exactly one attachment link;
    - at most one link joins any node pair (no parallel links);
    - the switch graph is connected, and every host can reach every
      server host.

    ``legacy_names`` is set only by :func:`repro.topo.builders.two_host`:
    it makes the compiled fabric keep the single-host naming (unprefixed
    RNG streams and audit accounts, port name from the link), which is
    what keeps the paper-testbed goldens byte-identical.
    """

    def __init__(self, hosts: List[HostSpec], switches: List[str],
                 links: List[LinkSpec], legacy_names: bool = False):
        self.hosts: Dict[str, HostSpec] = {}
        for spec in hosts:
            if spec.name in self.hosts:
                raise ValueError(f"duplicate host {spec.name!r}")
            self.hosts[spec.name] = spec
        self.switches: Tuple[str, ...] = tuple(switches)
        for sw in self.switches:
            if not sw or "." in sw or "/" in sw:
                raise ValueError(
                    f"switch name {sw!r} must be non-empty and must not "
                    "contain '.' or '/'")
            if sw in self.hosts:
                raise ValueError(f"{sw!r} is both a host and a switch")
        if len(set(self.switches)) != len(self.switches):
            raise ValueError("duplicate switch names")
        self.legacy_names = legacy_names
        #: host -> flow endpoints at that host, set by
        #: :func:`repro.scenario.build_topology` from the scenario's
        #: tenants; empty when the topology carries no traffic.
        self.flow_endpoints: Dict[str, int] = {}

        self.links: Tuple[LinkSpec, ...] = ()
        self._adjacent: Dict[str, List[LinkSpec]] = {
            name: [] for name in list(self.hosts) + list(self.switches)}
        seen_pairs = set()
        seen_names = set()
        resolved: List[LinkSpec] = []
        for link in links:
            for end in link.endpoints:
                if end not in self._adjacent:
                    raise ValueError(
                        f"link {link.endpoints} references unknown node "
                        f"{end!r}")
            if link.a in self.hosts and link.b in self.hosts:
                raise ValueError(
                    f"link {link.endpoints}: host-host links are not "
                    "allowed; attach hosts through a switch")
            pair = tuple(sorted(link.endpoints))
            if pair[0] == pair[1]:
                raise ValueError(f"link {link.endpoints} is a self-loop")
            if pair in seen_pairs:
                raise ValueError(f"parallel link {link.endpoints}")
            seen_pairs.add(pair)
            if not link.name:
                link = LinkSpec(link.a, link.b, rate=link.rate,
                                delay=link.delay, ack_delay=link.ack_delay,
                                buffer=link.buffer,
                                ecn_threshold=link.ecn_threshold,
                                name=f"{link.a}-{link.b}")
            if link.name in seen_names:
                raise ValueError(f"duplicate link name {link.name!r}")
            seen_names.add(link.name)
            resolved.append(link)
            self._adjacent[link.a].append(link)
            self._adjacent[link.b].append(link)
        self.links = tuple(resolved)

        for name in self.hosts:
            degree = len(self._adjacent[name])
            if degree != 1:
                raise ValueError(
                    f"host {name!r} must attach to exactly one switch "
                    f"(has {degree} links)")
        for link in self.links:
            if (link.a in self.hosts or link.b in self.hosts):
                continue
            # Inter-switch links are the conservative-sync boundaries of
            # repro.shard: a zero-delay hop would make the lookahead
            # degenerate (no window in which shards can run independently),
            # so it is a topology error, addressed like a scenario path.
            if link.delay == 0:
                raise ValueError(
                    f"topology.links[{link.name}].delay: inter-switch link "
                    f"{link.a!r}--{link.b!r} has delay == 0; switch-switch "
                    "links need positive propagation delay (it is the "
                    "conservative lookahead for sharded execution)")
        self._check_connected()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def server_hosts(self) -> List[HostSpec]:
        return [spec for spec in self.hosts.values() if spec.server]

    @property
    def client_hosts(self) -> List[HostSpec]:
        return [spec for spec in self.hosts.values() if not spec.server]

    def attachment(self, host: str) -> Tuple[str, LinkSpec]:
        """The (switch, link) a host hangs off."""
        link = self._adjacent[host][0]
        return link.other(host), link

    def link_between(self, a: str, b: str) -> LinkSpec:
        for link in self._adjacent[a]:
            if link.other(a) == b:
                return link
        raise KeyError(f"no link between {a!r} and {b!r}")

    def switch_neighbors(self, switch: str) -> List[str]:
        """Adjacent switches, sorted by name (deterministic ECMP order)."""
        return sorted(link.other(switch) for link in self._adjacent[switch]
                      if link.other(switch) not in self.hosts)

    def switch_links(self) -> List[LinkSpec]:
        """The inter-switch links, in declaration order (the only edges a
        shard partition may cut)."""
        return [link for link in self.links
                if link.a not in self.hosts and link.b not in self.hosts]

    def lookahead(self) -> float:
        """The conservative-sync lookahead of this topology, ns.

        The minimum over every inter-switch link of
        ``min(delay, reverse_delay)``: no causal influence can cross a
        switch boundary in less simulated time, so shards may run that
        far without hearing from each other. ``inf`` for a single-switch
        (uncuttable) topology. Raises if any inter-switch link has a
        zero reverse (ACK) delay — the forward direction is already
        rejected at validation.
        """
        horizon = float("inf")
        for link in self.switch_links():
            if link.reverse_delay == 0:
                raise ValueError(
                    f"topology.links[{link.name}].ack_delay: inter-switch "
                    f"link {link.a!r}--{link.b!r} has reverse delay == 0; "
                    "sharded execution needs positive lookahead in both "
                    "directions")
            horizon = min(horizon, link.delay, link.reverse_delay)
        return horizon

    def _check_connected(self) -> None:
        if not self.switches:
            raise ValueError("topology needs at least one switch")
        seen = {self.switches[0]}
        frontier = [self.switches[0]]
        while frontier:
            sw = frontier.pop()
            for nbr in self.switch_neighbors(sw):
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        missing = [sw for sw in self.switches if sw not in seen]
        if missing:
            raise ValueError(f"switch graph is disconnected: {missing} "
                             "unreachable from the first switch")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def next_hops_toward(self, dst_host: str) -> Dict[str, Tuple[str, ...]]:
        """Per-switch equal-cost next-hop candidates toward ``dst_host``.

        BFS from the destination's attachment switch; a switch's
        candidates are its neighbors one step closer to the destination,
        sorted by name. The attachment switch itself maps to an empty
        tuple (it delivers directly to the host).
        """
        attach_switch, _ = self.attachment(dst_host)
        dist = {attach_switch: 0}
        order = [attach_switch]
        i = 0
        while i < len(order):
            sw = order[i]
            i += 1
            for nbr in self.switch_neighbors(sw):
                if nbr not in dist:
                    dist[nbr] = dist[sw] + 1
                    order.append(nbr)
        table: Dict[str, Tuple[str, ...]] = {}
        for sw in self.switches:
            if sw not in dist:
                continue
            if sw == attach_switch:
                table[sw] = ()
                continue
            table[sw] = tuple(nbr for nbr in self.switch_neighbors(sw)
                              if dist.get(nbr, -1) == dist[sw] - 1)
        return table

    def path_links(self, src_host: str, dst_host: str,
                   choose=lambda candidates: candidates[0]
                   ) -> List[LinkSpec]:
        """The links a flow traverses from ``src_host`` to ``dst_host``,
        using ``choose`` to break equal-cost ties at each switch."""
        src_switch, src_link = self.attachment(src_host)
        dst_switch, dst_link = self.attachment(dst_host)
        table = self.next_hops_toward(dst_host)
        if src_switch not in table:
            raise ValueError(f"no route from {src_host!r} to {dst_host!r}")
        links = [src_link]
        sw = src_switch
        while sw != dst_switch:
            nxt = choose(table[sw])
            links.append(self.link_between(sw, nxt))
            sw = nxt
        links.append(dst_link)
        return links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Topology {len(self.hosts)} hosts "
                f"({len(self.server_hosts)} servers), "
                f"{len(self.switches)} switches, {len(self.links)} links>")
