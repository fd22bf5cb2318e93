"""Compile a :class:`~repro.topo.graph.Topology` into a live fabric.

One :class:`Fabric` owns one :class:`~repro.sim.Simulator` and one
:class:`~repro.sim.RngRegistry` for the whole topology. Each *server*
host becomes a :class:`HostEndpoint` — a full receiver stack (``Host``
hardware model, I/O architecture, last-hop ``SwitchPort``) with the
surface measurement windows, conservation ledgers, and fault controllers
work against (``sim`` / ``rng`` / ``host`` / ``port`` / ``flows`` /
``install_io_arch`` / ``add_flow`` / ``ack``), so they work per host
without modification. Each switch becomes a :class:`SwitchNode` with one
``SwitchPort`` per *used* egress; interior (switch-to-switch) hops count
forwarded packets so ``switch.<name>.port.<i>`` conservation accounts
close (see :func:`repro.audit.wiring.build_fabric_ledger`).

Determinism:

- RNG streams are namespaced ``"<host>.<stream>"`` via :class:`HostRng`,
  so adding a host never perturbs another host's draws. Topologies built
  by :func:`repro.topo.builders.two_host` keep *unprefixed* names —
  that, plus a fixed construction order (Simulator, registry, Host, then
  the single ToR port), is what keeps every single-host golden digest
  byte-identical.
- Equal-cost multipath ties are broken by the fabric's own flow
  registration counter (``index % len(candidates)`` over name-sorted
  candidates), never by global flow ids, which depend on what ran
  earlier in the process.

Event domains and shard scope (:mod:`repro.shard`):

Every scheduling action is charged to the *event domain* of the
partition atom (a switch plus its attached hosts) whose state it
touches: ``domain == index of the switch in topology.switches``.
Construction sites are bracketed with :meth:`Fabric.in_domain`; the two
genuinely cross-domain runtime callbacks — interior switch-to-switch
delivery and ACK execution at the client — switch domains explicitly at
the top (see ``repro.sim.engine``, "Event domains"). On a single-switch
topology everything stays in domain 0 and the kernel's historical
single-counter fast path is bit-identical.

A fabric built with ``scope={switch names}`` materialises live
components only for the scoped atoms (their endpoints, ports, senders)
while still replicating the *entire* deterministic build control flow —
flow registration ordinals, ECMP route draws, ACK-delay sums, per-host
RNG stream draws — so each shard's per-domain sequence counters advance
exactly as the single-kernel run's do. Boundary (cut) links serialise
packets into cross-shard channel messages carrying their full
``(time, composite seq)`` calendar key; see :meth:`Fabric.attach_channels`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple)

from ..hw import Host, HostConfig
from ..net.dctcp import DctcpConfig, DctcpSender
from ..net.link import SwitchPort
from ..net.packet import Flow, Packet
from ..sim import RngRegistry, Simulator
from .graph import LinkSpec, Topology

__all__ = ["Fabric", "HostEndpoint", "HostRng", "SwitchNode", "port_plan"]


def port_plan(topology: Topology,
              tables: Optional[Dict[str, Dict[str, Tuple[str, ...]]]] = None
              ) -> Dict[Tuple[str, str], LinkSpec]:
    """The deterministic egress-port plan of a topology: one ``(switch,
    neighbour)`` entry per direction actually used by some
    client->server route, in creation order (servers in topology order,
    switches in topology order, candidates sorted). Insertion order
    fixes every switch's audit port numbering (``switch.<sw>.port.<i>``).
    ``Fabric._build_ports`` realises this plan; the shard channel layer
    (:mod:`repro.shard.channel`) replays it to name a remote port's
    audit account without holding a fabric."""
    if tables is None:
        tables = {spec.name: topology.next_hops_toward(spec.name)
                  for spec in topology.server_hosts}
    plan: Dict[Tuple[str, str], LinkSpec] = {}
    for spec in topology.server_hosts:
        attach_sw, link = topology.attachment(spec.name)
        plan.setdefault((attach_sw, spec.name), link)
        table = tables[spec.name]
        for sw in topology.switches:
            for nbr in table.get(sw, ()):
                plan.setdefault((sw, nbr), topology.link_between(sw, nbr))
    return plan


class HostRng:
    """A per-host view of the fabric's shared :class:`RngRegistry`: every
    stream name is prefixed with ``"<host>."``, so one host's draw order
    is independent of every other host's."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: RngRegistry, prefix: str):
        self._registry = registry
        self.prefix = prefix

    @property
    def root_seed(self) -> int:
        return self._registry.root_seed

    def stream(self, name: str):
        return self._registry.stream(self.prefix + name)

    def spawn(self, name: str) -> RngRegistry:
        return self._registry.spawn(self.prefix + name)


class Forwarder:
    """Ingress dispatch at ``next_switch``, called with each packet an
    upstream egress delivers: enter the switch's event domain, count the
    handoff in ``count``, then send on the flow's pre-chosen egress out
    of that switch. The domain switch charges the enqueue (and any
    egress wake-up) to the switch that owns the queue, which is what
    lets a peer shard replay this callback identically."""

    __slots__ = ("sim", "domain", "next_port", "next_switch", "count")

    def __init__(self, fabric: "Fabric", next_switch: str):
        self.sim = fabric.sim
        self.domain = fabric._domain_of_switch[next_switch]
        self.next_port = fabric._next_port
        self.next_switch = next_switch
        self.count = 0.0

    def __call__(self, packet: Packet) -> None:
        self.sim.set_domain(self.domain)
        self.count += 1
        self.next_port[(packet.flow.flow_id, self.next_switch)].send(packet)


class SwitchNode:
    """One switch of a compiled fabric: its used egress ports (creation
    order = audit port index) and, for interior ports, the forwarders
    whose packet counts the conservation accounts balance against."""

    __slots__ = ("name", "ports", "forwarded")

    def __init__(self, name: str):
        self.name = name
        #: neighbor node name -> egress SwitchPort, in creation order.
        self.ports: Dict[str, SwitchPort] = {}
        #: neighbor switch name -> the forwarder this egress hands
        #: packets to (that switch's ingress dispatch; interior ports
        #: only).
        self.forwarded: Dict[str, Forwarder] = {}

    def port_index(self, neighbor: str) -> int:
        return list(self.ports).index(neighbor)


class HostEndpoint:
    """One server host: its hardware, I/O architecture and last-hop port."""

    def __init__(self, fabric: "Fabric", name: str, prefix: str,
                 host_config: Optional[HostConfig]):
        self.fabric = fabric
        self.name = name
        #: RNG / audit-account name prefix ("" in legacy two-host mode).
        self.prefix = prefix
        self.sim = fabric.sim
        self.rng = (fabric.rng if prefix == ""
                    else HostRng(fabric.rng, prefix))
        self.host = Host(self.sim, host_config, name=name, rng=self.rng)
        #: The last-hop egress port toward this host (set at port wiring).
        self.port: Optional[SwitchPort] = None
        #: Flows terminating at this host, in registration order.
        self.flows: List[Flow] = []
        self.io_arch = None
        #: The open MeasurementWindow, if any (see workloads.measure).
        self.active_window = None

    # -- per-host surface -----------------------------------------------
    @property
    def senders(self) -> Dict[int, DctcpSender]:
        """The fabric-wide sender table (senders live host-side on the
        *clients*; a crash pops the flow's sender from the shared dict)."""
        return self.fabric.senders

    def install_io_arch(self, io_arch) -> None:
        """Attach the receive-side I/O architecture to this host's NIC."""
        self.io_arch = io_arch
        io_arch.ack = self.ack
        self.host.nic.install_handler(io_arch)

    def add_flow(self, flow: Flow, src: Optional[str] = None,
                 late_ok: bool = False) -> DctcpSender:
        """Register ``flow`` from client ``src`` (default: the first
        client host) toward this host."""
        return self.fabric.add_flow(flow, src=src, dst=self.name,
                                    late_ok=late_ok)

    def _deliver(self, packet: Packet) -> None:
        packet.arrival_time = self.sim.now
        self.host.nic.receive(packet)

    def ack(self, packet: Packet, extra_mark: bool = False) -> None:
        """ACK an accepted packet along the flow's reverse path (the sum
        of per-link ``ack_delay`` values, so asymmetric topologies are
        expressible; symmetric defaults give the testbed's one-way delay)."""
        self.fabric.ack(packet, extra_mark)

    def run(self, until: float) -> None:
        self.sim.run(until=until)


def _cut_deliver(packet) -> None:  # pragma: no cover - contract guard
    raise RuntimeError(
        "boundary-link local delivery invoked: a cut egress must ship "
        "its packets over the shard channel (attach_channels not called?)")


#: Fields a boundary-crossing packet carries by value. ``flow`` travels
#: as the fabric registration *ordinal* (process-global flow ids never
#: cross shard boundaries); ``size`` is derived from the payload.
_SNAP_FIELDS = ("seq", "payload", "message_id", "last_in_message",
                "ecn_marked", "send_time", "first_send_time",
                "arrival_time", "delivered_time", "retransmitted")


class Fabric:
    """A compiled topology: hosts, switches, ports, routes, transports."""

    def __init__(self, topology: Topology,
                 host_config: Optional[HostConfig] = None,
                 host_configs: Optional[Dict[str, HostConfig]] = None,
                 dctcp_config: Optional[DctcpConfig] = None,
                 seed: int = 0,
                 scope: Optional[Iterable[str]] = None):
        self.topology = topology
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.dctcp_config = dctcp_config or DctcpConfig()
        self.senders: Dict[int, DctcpSender] = {}
        self.endpoints: Dict[str, HostEndpoint] = {}
        #: Switch name -> event domain (its index in topology.switches);
        #: identical in every shard and in the single kernel.
        self._domain_of_switch: Dict[str, int] = {
            name: i for i, name in enumerate(topology.switches)}
        self._switch_set: Set[str] = set(topology.switches)
        #: Shard scope: the set of locally-materialised switches, or
        #: None for the full (single-kernel) build.
        self.scope: Optional[frozenset] = (
            None if scope is None else frozenset(scope))
        if self.scope is not None:
            unknown = self.scope - self._switch_set
            if unknown:
                raise ValueError(
                    f"scope names unknown switches: {sorted(unknown)}")
            if not self.scope:
                raise ValueError("scope must name at least one switch")
        self.switches: Dict[str, SwitchNode] = {
            name: SwitchNode(name) for name in topology.switches
            if self.is_local_switch(name)}
        #: (flow_id, switch) -> egress port the switch forwards on.
        self._next_port: Dict[Tuple[int, str], SwitchPort] = {}
        #: flow_id -> total reverse-path (ACK) delay, ns.
        self._ack_delay: Dict[int, float] = {}
        #: flow_id -> source host name (diagnostics / experiments).
        self.flow_sources: Dict[int, str] = {}
        self._flow_seq = 0
        #: Registration ordinal -> Flow, and the inverse. Channel
        #: messages address flows by ordinal: it is the only flow
        #: identity every shard derives identically.
        self.flows_by_ordinal: List[Flow] = []
        self.flow_ordinal: Dict[int, int] = {}
        #: flow_id -> cross-domain ACK executor (None when client and
        #: server share a domain and the legacy direct path applies).
        self._ack_execs: Dict[int, Optional[Callable]] = {}
        self._ack_exec_cache: Dict[int, Callable] = {}
        #: Cross-shard ACK channel emitter, installed by attach_channels.
        self._ack_emit: Optional[Callable] = None
        #: Cut-link halves (scoped fabrics only): locally-owned egresses
        #: whose delivery runs in a peer shard, and locally-owned ingress
        #: dispatches fed by a peer shard's egress.
        self._cut_egress: List[Tuple[str, str, SwitchPort]] = []
        self._cut_ingress: Dict[Tuple[str, str], Forwarder] = {}
        #: Switch -> its egress neighbours in port-creation order, for
        #: *every* switch (scoped builds replay the full plan), so any
        #: shard can name a remote switch's audit port index.
        self._port_order: Dict[str, List[str]] = {}

        servers = topology.server_hosts
        if not servers:
            raise ValueError("topology has no server hosts")
        #: Legacy-naming mode: unprefixed RNG streams and audit accounts
        #: (only a single-server ``two_host()`` topology qualifies).
        self.legacy = topology.legacy_names and len(servers) == 1
        # Hosts first, then ports — this construction order fixes
        # process-creation order inside the kernel.
        for spec in servers:
            if not self.is_local_host(spec.name):
                continue
            prefix = "" if self.legacy else f"{spec.name}."
            with self.host_domain(spec.name):
                self.endpoints[spec.name] = HostEndpoint(
                    self, spec.name, prefix,
                    (host_configs or {}).get(spec.name, host_config))
        #: Per-destination next-hop candidate tables (all servers, local
        #: or not: routing and the port plan are global facts).
        self._tables: Dict[str, Dict[str, Tuple[str, ...]]] = {
            spec.name: topology.next_hops_toward(spec.name)
            for spec in servers}
        self._build_ports()

    # ------------------------------------------------------------------
    # Shard scope / event domains
    # ------------------------------------------------------------------
    def is_local_switch(self, switch: str) -> bool:
        return self.scope is None or switch in self.scope

    def is_local_host(self, host: str) -> bool:
        if self.scope is None:
            return True
        attach_sw, _link = self.topology.attachment(host)
        return attach_sw in self.scope

    def domain_of_host(self, host: str) -> int:
        attach_sw, _link = self.topology.attachment(host)
        return self._domain_of_switch[attach_sw]

    @contextmanager
    def in_domain(self, domain: int):
        """Charge every scheduling action in the block to ``domain``
        (build-time bracketing; no-op when already active)."""
        sim = self.sim
        prev = sim.domain
        sim.set_domain(domain)
        try:
            yield
        finally:
            sim.set_domain(prev)

    def host_domain(self, host: str):
        return self.in_domain(self.domain_of_host(host))

    def switch_domain(self, switch: str):
        return self.in_domain(self._domain_of_switch[switch])

    def host_rng(self, host: str) -> Any:
        """The RNG namespace of ``host``, materialised or not — scoped
        builds replicate remote hosts' draws through this (stream seeds
        are pure functions of (root seed, name), never of locality)."""
        if self.legacy:
            return self.rng
        return HostRng(self.rng, f"{host}.")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _build_ports(self) -> None:
        """Create one ``SwitchPort`` per egress direction actually used
        by some client->server route, in deterministic order (servers in
        topology order, switches in topology order, candidates sorted).

        The plan is always computed for the *full* topology; a scoped
        build materialises only ports owned by scoped switches, records
        every switch's port order for cross-shard audit naming, and
        splits cut links into an egress half (local port, channel
        emitter) and an ingress half (the counting forwarder)."""
        topo = self.topology
        plan = port_plan(topo, self._tables)
        for (sw, nbr), link in plan.items():
            self._port_order.setdefault(sw, []).append(nbr)
            nbr_is_switch = nbr in self._switch_set
            if not self.is_local_switch(sw):
                # Peer-owned egress; if it feeds a local switch, build
                # the ingress half (the forwarded count lives with the
                # switch that *receives* the packets).
                if nbr_is_switch and self.is_local_switch(nbr):
                    self._cut_ingress[(sw, nbr)] = Forwarder(self, nbr)
                continue
            node = self.switches[sw]
            cut = nbr_is_switch and not self.is_local_switch(nbr)
            if nbr in self.endpoints:
                endpoint: Optional[HostEndpoint] = self.endpoints[nbr]
                deliver: Callable = endpoint._deliver
                name = link.name
            elif cut:
                endpoint = None
                deliver = _cut_deliver
                name = f"{link.name}:{sw}>{nbr}"
            else:
                endpoint = None
                deliver = node.forwarded[nbr] = Forwarder(self, nbr)
                name = f"{link.name}:{sw}>{nbr}"
            with self.switch_domain(sw):
                port = SwitchPort(
                    self.sim, rate=link.rate, propagation=link.delay,
                    deliver=deliver, buffer_bytes=link.buffer,
                    ecn_threshold=link.ecn_threshold, name=name)
            node.ports[nbr] = port
            if endpoint is not None:
                endpoint.port = port
            if cut:
                self._cut_egress.append((sw, nbr, port))

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow, src: Optional[str] = None,
                 dst: Optional[str] = None, late_ok: bool = False
                 ) -> Optional[DctcpSender]:
        """Create the sender-side transport for ``flow`` from client
        ``src`` to server ``dst``, pin its route, and register it with
        the destination's I/O architecture.

        On a scoped fabric the call must still be made for *every* flow
        (the registration ordinal, ECMP draw, and ACK delay are global
        bookkeeping every shard replicates); live pieces are built only
        for local atoms, and ``None`` is returned when the client is
        remote."""
        topo = self.topology
        if dst is None:
            if self.scope is not None:
                raise ValueError(
                    "scoped fabrics need an explicit dst (the default "
                    "'first endpoint' differs per shard)")
            dst = next(iter(self.endpoints))
        endpoint = self.endpoints.get(dst)
        if self.scope is None and endpoint is None:
            raise KeyError(dst)
        if endpoint is not None and endpoint.io_arch is None:
            raise RuntimeError("install_io_arch() before add_flow()")
        if src is None:
            clients = topo.client_hosts
            src = clients[0].name if clients else None
        if src is None or src not in topo.hosts:
            raise ValueError(f"unknown source host {src!r}")
        window = endpoint.active_window if endpoint is not None else None
        if window is not None and not late_ok:
            raise RuntimeError(
                f"add_flow({flow.name!r}) on {dst!r} after measurement "
                f"started at t={window.t_start:g} ns: the open "
                "MeasurementWindow would silently exclude the flow from "
                "its metrics. Add flows before the window opens, or pass "
                "late_ok=True and call window.note_new_flow(flow) after "
                "registration.")

        index = self._flow_seq
        self._flow_seq += 1
        src_sw, src_link = topo.attachment(src)
        dst_sw, dst_link = topo.attachment(dst)
        table = self._tables[dst]
        if src_sw not in table:
            raise ValueError(f"no route from {src!r} to {dst!r}")
        path_links: List[LinkSpec] = [src_link]
        sw = src_sw
        while sw != dst_sw:
            candidates = table[sw]
            nxt = candidates[index % len(candidates)]
            if sw in self.switches:
                self._next_port[(flow.flow_id, sw)] = \
                    self.switches[sw].ports[nxt]
            path_links.append(topo.link_between(sw, nxt))
            sw = nxt
        if dst_sw in self.switches:
            self._next_port[(flow.flow_id, dst_sw)] = \
                self.switches[dst_sw].ports[dst]
        path_links.append(dst_link)

        self._ack_delay[flow.flow_id] = sum(
            link.reverse_delay for link in path_links)
        self.flow_sources[flow.flow_id] = src
        self.flow_ordinal[flow.flow_id] = len(self.flows_by_ordinal)
        self.flows_by_ordinal.append(flow)
        src_domain = self._domain_of_switch[src_sw]
        dst_domain = self._domain_of_switch[dst_sw]
        # Same-domain flows keep the legacy direct ACK path (the domain
        # switch would be a no-op); cross-domain flows execute ACKs
        # under the client's domain.
        self._ack_execs[flow.flow_id] = (
            None if src_domain == dst_domain
            else self._ack_exec_for(src_domain))

        sender: Optional[DctcpSender] = None
        if self.is_local_host(src):
            entry_port = self._next_port[(flow.flow_id, src_sw)]
            uplink = src_link.delay
            if uplink == 0.0:
                egress = entry_port.send
            else:
                egress = self._make_uplink(uplink, entry_port)
            with self.in_domain(src_domain):
                sender = DctcpSender(self.sim, flow, egress,
                                     self.dctcp_config)
            self.senders[flow.flow_id] = sender
        if endpoint is not None:
            endpoint.flows.append(flow)
            with self.in_domain(dst_domain):
                endpoint.io_arch.register_flow(flow)
            if window is not None:
                window.note_new_flow(flow)
        return sender

    def _make_uplink(self, delay: float,
                     entry_port: SwitchPort) -> Callable[[Packet], None]:
        """A client uplink with propagation delay but no serialisation
        (uplinks are uncontended; queueing happens at switch egresses)."""
        sim = self.sim
        send = entry_port.send

        def egress(packet: Packet) -> None:
            sim.call_later(delay, send, packet)

        return egress

    def _ack_exec_for(self, domain: int) -> Callable:
        """The shared per-domain ACK executor: enters the client's event
        domain, then delivers the ACK to the sender captured at schedule
        time (preserving crashed-sender semantics: a sender that was
        live when the ACK was scheduled still hears it)."""
        exec_ = self._ack_exec_cache.get(domain)
        if exec_ is None:
            sim = self.sim

            def exec_(sender: DctcpSender, seq: int, marked: bool) -> None:
                sim.set_domain(domain)
                sender.on_ack(seq, marked)

            self._ack_exec_cache[domain] = exec_
        return exec_

    # ------------------------------------------------------------------
    # Reverse path
    # ------------------------------------------------------------------
    def ack(self, packet: Packet, extra_mark: bool = False) -> None:
        fid = packet.flow.flow_id
        sender = self.senders.get(fid)
        marked = packet.ecn_marked or extra_mark
        if sender is not None:
            exec_ = self._ack_execs[fid]
            if exec_ is None:
                self.sim.call_later(self._ack_delay[fid],
                                    sender.on_ack, packet.seq, marked)
            else:
                self.sim.call_later(self._ack_delay[fid],
                                    exec_, sender, packet.seq, marked)
            return
        # Scoped fabric, client in a peer shard: consume the one
        # sequence number the single-kernel call_later would have and
        # ship the full calendar key over the ACK channel. (An unscoped
        # fabric lands here only for crashed flows, whose ACKs drop.)
        if self._ack_emit is not None:
            ordinal = self.flow_ordinal.get(fid)
            if ordinal is not None and \
                    not self.is_local_host(self.flow_sources[fid]):
                when, seq = self.sim.reserve_key(self._ack_delay[fid])
                self._ack_emit(ordinal, when, seq, packet.seq, marked)

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Cross-shard channels (repro.shard)
    # ------------------------------------------------------------------
    def attach_channels(self, packet_emit: Callable,
                        ack_emit: Callable) -> None:
        """Install the shard kernel's channel emitters on a scoped
        fabric. ``packet_emit(src_sw, dst_sw, when, seq, snap)`` ships a
        boundary-crossing packet; ``ack_emit(ordinal, when, seq,
        pkt_seq, marked)`` ships an ACK whose client is remote. Both
        carry the exact ``(time, composite seq)`` calendar key consumed
        locally, so the peer inserts the entry verbatim."""
        if self.scope is None:
            raise RuntimeError("attach_channels() requires a scoped fabric")
        self._ack_emit = ack_emit
        for src_sw, dst_sw, port in self._cut_egress:
            port._wire_send = self._make_cut_emitter(
                port, src_sw, dst_sw, packet_emit)

    def _make_cut_emitter(self, port: SwitchPort, src_sw: str,
                          dst_sw: str, emit: Callable) -> Callable:
        """The boundary replacement for ``SwitchPort._wire_schedule``:
        schedule the *local* half of the wire arrival (the in-flight
        decrement) — consuming exactly the one sequence number the
        single-kernel arrival would — and ship the entry's key plus a
        packet snapshot to the peer, which replays the delivery half
        under the identical key."""
        sim = self.sim
        snapshot = self.snapshot_packet

        def wire_send(packet: Packet) -> None:
            entry = sim.call_later(port.propagation,
                                   port._wire_depart, packet)
            emit(src_sw, dst_sw, entry[0], entry[1], snapshot(packet))

        return wire_send

    def snapshot_packet(self, packet: Packet) -> tuple:
        """Serialise a packet by value for the cross-shard channel."""
        return (self.flow_ordinal[packet.flow.flow_id],
                ) + tuple(getattr(packet, f) for f in _SNAP_FIELDS)

    def restore_packet(self, snap: tuple) -> Packet:
        """Rebuild a channel packet against this shard's own Flow
        object for the ordinal (field-for-field identical to the copy
        the single-kernel run would be holding)."""
        flow = self.flows_by_ordinal[snap[0]]
        packet = Packet(flow, snap[1], snap[2], message_id=snap[3],
                        last_in_message=snap[4])
        (packet.ecn_marked, packet.send_time, packet.first_send_time,
         packet.arrival_time, packet.delivered_time,
         packet.retransmitted) = snap[5:]
        return packet

    def inject_packet(self, src_sw: str, dst_sw: str, when: float,
                      seq: int, snap: tuple) -> None:
        """Insert a peer shard's boundary-link delivery verbatim."""
        deliver = self._cut_ingress[(src_sw, dst_sw)]
        self.sim.post_keyed(when, seq, deliver, self.restore_packet(snap))

    def inject_ack(self, ordinal: int, when: float, seq: int,
                   pkt_seq: int, marked: bool) -> None:
        """Insert a peer shard's ACK delivery verbatim (the client of
        flow ``ordinal`` lives here)."""
        flow = self.flows_by_ordinal[ordinal]
        sender = self.senders.get(flow.flow_id)
        if sender is None:
            # A crashed (apps-fault) flow: its sender was popped. Under
            # sharding the crash constraint keeps client and server in
            # one shard, so a cross-shard ACK for a crashed flow cannot
            # normally occur; dropping it mirrors the single kernel's
            # senders.get miss.
            return
        exec_ = self._ack_execs[flow.flow_id]
        assert exec_ is not None  # cross-shard implies cross-domain
        self.sim.post_keyed(when, seq, exec_, sender, pkt_seq, marked)

    # ------------------------------------------------------------------
    def interior_ports(self) -> List[Tuple[str, int, SwitchPort, Forwarder]]:
        """(switch, port index, port, forwarder) for every
        switch-to-switch egress whose both ends are local, in creation
        order — the audit hook."""
        out = []
        for node in self.switches.values():
            for i, (nbr, port) in enumerate(node.ports.items()):
                if nbr in node.forwarded:
                    out.append((node.name, i, port, node.forwarded[nbr]))
        return out

    def cut_egresses(self) -> List[Tuple[str, int, SwitchPort, str]]:
        """(switch, port index, port, peer switch) for every locally-
        owned boundary egress (scoped fabrics only). The index matches
        the single-kernel ``switch.<sw>.port.<i>`` audit naming."""
        out = []
        for sw, nbr, port in self._cut_egress:
            out.append((sw, self.switches[sw].port_index(nbr), port, nbr))
        return out

    def cut_ingresses(self) -> List[Tuple[str, int, str, Forwarder]]:
        """(peer switch, peer port index, peer switch name, forwarder)
        for every locally-owned boundary ingress half. The
        port index is computed from the replayed full port plan, so it
        names the same ``switch.<peer>.port.<i>`` account the peer (and
        the single kernel) uses."""
        out = []
        for (src_sw, dst_sw), forwarder in sorted(self._cut_ingress.items()):
            index = self._port_order[src_sw].index(dst_sw)
            out.append((src_sw, index, dst_sw, forwarder))
        return out
