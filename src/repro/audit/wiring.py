"""Wire a fabric's components into a conservation :class:`~.ledger.Ledger`.

One function, :func:`build_fabric_ledger`, walks the fixed component
graph of every server host of a :class:`repro.topo.Fabric` — last-hop
switch port, wire, NIC MAC, firmware handler, DMA engine, IIO buffer,
memory controller, PCIe credits, on-NIC memory, LLC — and registers one
balance equation per layer, then hands the ledger to the installed I/O
architecture's ``audit_register`` hook for the architecture-specific
equations (descriptor rings, shared-ring slots, CEIO
credits / elastic buffers / phase barriers).

Every source is read **lazily** at reconcile time: building the ledger
costs a handful of small objects once per scenario, and the hot path pays
only the in-place increments of the plain float counter fields the
components already keep. Each counter is registered as an
``(owner, "field")`` pair.

Accounts marked ``barrier_safe`` have debit/credit transitions that are
atomic within one kernel step, so they also hold at arbitrary mid-run
barriers (the ``REPRO_SIM_DEBUG=1`` periodic checks). The PCIe credit
account is *not* barrier-safe: :class:`repro.sim.resources.Container`
debits its level synchronously but the waiting DMA process only counts the
acquisition when it resumes (same timestamp), so that equation is exact
only once the event calendar has drained — which ``Simulator.run(until=T)``
guarantees at every return.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .ledger import Ledger

if TYPE_CHECKING:
    from ..hw.cache import FullyAssociativeLLC, SetAssociativeLLC
    from ..hw.host import Host
    from ..hw.nic import Nic
    from ..io_arch.base import IOArchitecture
    from ..net.link import SwitchPort

__all__ = ["build_fabric_ledger", "register_host_accounts"]


class _PrefixedLedger:
    """A view of a :class:`Ledger` that prefixes every account name —
    how one fabric-wide ledger hosts per-host account families
    (``"<host>.net.port"``, ``"<host>.arch...."``) without the
    architectures' ``audit_register`` hooks knowing about hosts."""

    __slots__ = ("_ledger", "_prefix")

    def __init__(self, ledger: Ledger, prefix: str):
        self._ledger = ledger
        self._prefix = prefix

    def account(self, name: str, unit: str, **kwargs):
        return self._ledger.account(self._prefix + name, unit, **kwargs)


def _register_network(ledger: Union[Ledger, _PrefixedLedger],
                      port: SwitchPort, nic: Nic) -> None:
    """Switch port and wire: offered packets are dropped, queued, in
    flight, or received by the NIC."""
    swport = ledger.account("net.port", "packets", barrier_safe=True)
    swport.debit("offered", (port, "rx_offered"))
    swport.credit("fault_dropped", (port, "fault_dropped"))
    swport.credit("tail_dropped", (port, "dropped_packets"))
    swport.credit("transmitted", (port, "tx_packets"))
    swport.credit("queued", (port, "queued_packets"))

    wire = ledger.account("net.wire", "packets", barrier_safe=True)
    wire.debit("transmitted", (port, "tx_packets"))
    wire.credit("in_flight", (port, "wire_inflight"))
    wire.credit("nic_received", (nic, "rx_packets"))


def _register_nic(ledger: Union[Ledger, _PrefixedLedger], nic: Nic,
                  arch: IOArchitecture) -> None:
    """MAC buffer and firmware handler: every received packet is MAC-
    dropped, handled, or still buffered; every handled packet was
    categorised by the architecture exactly once."""
    mac = ledger.account("nic.mac", "packets", barrier_safe=True)
    mac.debit("received", (nic, "rx_packets"))
    mac.credit("mac_dropped", (nic, "dropped_packets"))
    mac.credit("handled", (nic, "handled_packets"))
    mac.credit("buffered", (nic, "_mac_pkts"))

    # The window between entering on_packet and the admit/drop/duplicate
    # decision is covered by handler_inflight (bounded, slack <= 1).
    handler = ledger.account("nic.handler", "packets", barrier_safe=True,
                             bounded=True)
    handler.debit("accepted", (arch, "rx_accepted"))
    handler.debit("arch_dropped", (arch, "rx_dropped"))
    handler.debit("shed", (arch, "rx_shed"))
    handler.debit("duplicates",
                  lambda: sum(rx.duplicates
                              for rx in arch._all_rx.values()))
    handler.credit("handled", (nic, "handled_packets"))
    handler.credit("mac_dropped", (nic, "dropped_packets"))
    handler.slack("handler_inflight", (nic, "handler_inflight"))


def _register_dma_path(ledger: Union[Ledger, _PrefixedLedger],
                       host: Host) -> None:
    """DMA engine -> PCIe -> IIO -> memory controller."""
    dma = host.nic.dma
    engine = ledger.account("dma.engine", "packets", barrier_safe=True)
    engine.debit("requests", (dma, "requests"))
    engine.credit("dropped_writes", (dma, "dropped_writes"))
    engine.credit("pending", (dma, "pending_writes"))
    engine.credit("issued", (dma, "writes_issued"))

    iio = ledger.account("hw.iio", "packets", barrier_safe=True)
    iio.debit("issued", (dma, "writes_issued"))
    iio.credit("inbound_inflight", (host.iio, "inbound_inflight"))
    iio.credit("completed", (host.memctrl, "writes_completed"))

    memctrl = ledger.account("hw.memctrl", "packets", barrier_safe=True)
    memctrl.debit("completed", (host.memctrl, "writes_completed"))
    memctrl.credit("delivered", (host.memctrl, "deliveries"))
    memctrl.credit("no_consumer", (host.memctrl, "no_deliver"))

    pcie = host.pcie
    credits = ledger.account("hw.pcie_credits", "bytes", tolerance=1e-6)
    credits.debit("acquired", (pcie, "credits_acquired"))
    credits.credit("released", (pcie, "credits_released"))
    credits.credit("outstanding",
                   lambda: pcie.config.posted_credits
                   - pcie._credits.level)

    nicmem = ledger.account("hw.nicmem", "bytes", barrier_safe=True)
    nicmem.debit("allocated", (host.nic.memory, "allocated_bytes"))
    nicmem.credit("freed", (host.nic.memory, "freed_bytes"))
    nicmem.credit("used", (host.nic.memory, "used"))


def _register_llc(ledger: Union[Ledger, _PrefixedLedger],
                  llc: Union[FullyAssociativeLLC, SetAssociativeLLC]
                  ) -> None:
    """Cache residency conservation plus the DDIO capacity invariant, per
    cache model (byte-granularity for the fully-associative LRU, exact
    line-granularity for the set-associative model)."""
    if hasattr(llc, "audit_inserted_bytes"):
        cache = ledger.account("hw.llc", "bytes", barrier_safe=True)
        cache.debit("inserted", (llc, "audit_inserted_bytes"))
        cache.credit("evicted", (llc, "audit_evicted_bytes"))
        cache.credit("released", (llc, "audit_released_bytes"))
        cache.credit("overwritten", (llc, "audit_overwritten_bytes"))
        cache.credit("flushed", (llc, "audit_flushed_bytes"))
        cache.credit("resident", (llc, "_bytes"))

        # An insert larger than the (possibly fault-shrunk) partition is
        # allowed to over-occupy transiently, so the bound carries the
        # largest resident buffer as slack.
        cap = ledger.account("hw.llc_capacity", "bytes", barrier_safe=True,
                             bounded=True)
        cap.debit("resident", (llc, "_bytes"))
        cap.slack("capacity", (llc, "capacity"))
        cap.slack("largest_buffer",
                  lambda: max(llc._resident.values(), default=0))
    else:
        cache = ledger.account("hw.llc", "lines", barrier_safe=True)
        cache.debit("inserted", (llc.stats, "io_lines_inserted"))
        cache.credit("evicted", (llc.stats, "io_lines_evicted"))
        cache.credit("released", (llc, "audit_released_lines"))
        cache.credit("flushed", (llc, "audit_flushed_lines"))
        cache.credit("resident",
                     lambda: sum(len(lru) for lru in llc._set_lru))

        ways = ledger.account("hw.llc_ways", "ways", barrier_safe=True,
                              bounded=True)
        ways.debit("deepest_set",
                   lambda: max((len(lru) for lru in llc._set_lru),
                               default=0))
        ways.slack("ddio_ways", (llc, "ddio_ways"))


def register_host_accounts(ledger: Union[Ledger, _PrefixedLedger],
                           port: SwitchPort, host: Host,
                           arch: IOArchitecture) -> None:
    """Register the standard per-host account set (network, NIC, DMA
    path, LLC, plus the architecture's own equations) on ``ledger`` —
    which may be a :class:`_PrefixedLedger` view for multi-host fabrics.
    """
    _register_network(ledger, port, host.nic)
    _register_nic(ledger, host.nic, arch)
    _register_dma_path(ledger, host)
    _register_llc(ledger, host.llc)
    arch.audit_register(ledger)


def build_fabric_ledger(fabric) -> Ledger:
    """One conservation ledger for a compiled :class:`repro.topo.Fabric`.

    Every endpoint (server host) contributes the standard per-host
    account set under its name prefix — empty for a ``two_host()``
    fabric, whose ledger is the unprefixed single-host set. Every interior
    (switch-to-switch) egress additionally contributes a
    ``switch.<name>.port.<i>`` pair: the port equation (offered packets
    are dropped, queued, or transmitted) and the wire equation
    (transmitted packets are in flight or were handed to the next
    switch's ingress dispatch).
    """
    ledger = Ledger()
    for endpoint in fabric.endpoints.values():
        if endpoint.io_arch is None:
            raise ValueError(
                f"host {endpoint.name!r} has no installed I/O architecture")
        view = (ledger if endpoint.prefix == ""
                else _PrefixedLedger(ledger, endpoint.prefix))
        register_host_accounts(view, endpoint.port, endpoint.host,
                               endpoint.io_arch)
    for switch, index, port, forwarded in fabric.interior_ports():
        base = f"switch.{switch}.port.{index}"
        acct = ledger.account(base, "packets", barrier_safe=True)
        acct.debit("offered", (port, "rx_offered"))
        acct.credit("fault_dropped", (port, "fault_dropped"))
        acct.credit("tail_dropped", (port, "dropped_packets"))
        acct.credit("transmitted", (port, "tx_packets"))
        acct.credit("queued", (port, "queued_packets"))
        wire = ledger.account(f"{base}.wire", "packets", barrier_safe=True)
        wire.debit("transmitted", (port, "tx_packets"))
        wire.credit("in_flight", (port, "wire_inflight"))
        wire.credit("forwarded", (forwarded, "count"))
    # Boundary (cut) links of a scoped shard fabric. The port equation is
    # fully local to the egress-owning shard; the wire equation splits —
    # transmitted and in_flight live with the egress, the forwarded
    # counter with the ingress shard — so both halves register partial
    # ``cross_shard`` accounts under the single-kernel name and the
    # coordinator merges them (repro.audit.merge).
    if getattr(fabric, "scope", None) is not None:
        for switch, index, port, _peer in fabric.cut_egresses():
            base = f"switch.{switch}.port.{index}"
            acct = ledger.account(base, "packets", barrier_safe=True)
            acct.debit("offered", (port, "rx_offered"))
            acct.credit("fault_dropped", (port, "fault_dropped"))
            acct.credit("tail_dropped", (port, "dropped_packets"))
            acct.credit("transmitted", (port, "tx_packets"))
            acct.credit("queued", (port, "queued_packets"))
            wire = ledger.account(f"{base}.wire", "packets",
                                  cross_shard=True)
            wire.debit("transmitted", (port, "tx_packets"))
            wire.credit("in_flight", (port, "wire_inflight"))
        for peer, index, _local_sw, forwarded in fabric.cut_ingresses():
            wire = ledger.account(f"switch.{peer}.port.{index}.wire",
                                  "packets", cross_shard=True)
            wire.credit("forwarded", (forwarded, "count"))
    return ledger
