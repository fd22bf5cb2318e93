"""The CEIO I/O architecture: NIC-side runtime + host-side driver (§3-§5).

Wiring (Figure 5):

- every registered flow gets a steering rule (initially fast path), a
  credit account (Algorithm 1 assignment), and a SW ring;
- ``on_packet`` follows the *current* steering rule — credits are debited
  by bookkeeping, but rule flips happen in the ARM control loop that polls
  steering counters, so a few packets can over-admit between polls exactly
  as on real hardware (this is why CEIO's measured miss rate is ~1%, not
  0%);
- degraded flows buffer into on-NIC memory; the driver drains them with
  (a)synchronous DMA reads and upgrades the flow back to the fast path
  once the slow ring is empty and credits are available;
- lazy credit release, donation of slow-path flows' credits, inactivity
  reclamation, and round-robin reactivation implement §4.1's Q1-Q3.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, List, Optional

from ..hw import DmaWrite, Host
from ..io_arch.base import FlowRx, IOArchitecture, RxRecord
from ..net.packet import Flow, Packet
from ..sim import SimulationError
from .admission import AdmissionController
from .config import CeioConfig
from .credit import CreditController
from .driver import CeioDriver
from .elastic_buffer import ElasticBufferManager
from .steering import SteeringAction, SteeringTable
from .sw_ring import SwRing

__all__ = ["CeioFlowState", "CeioArchitecture"]

_keys = itertools.count(10**9)  # distinct from base-class key space


class CeioFlowState:
    """Per-flow runtime state beyond the generic FlowRx."""

    __slots__ = ("flow", "swring", "draining", "drain_proc",
                 "degraded_since", "cca_marking", "inactive", "pinned_slow",
                 "watchdog_backoff", "barrier_stuck_since",
                 "barrier_progress")

    def __init__(self, flow: Flow):
        self.flow = flow
        self.swring = SwRing(flow.flow_id)
        self.draining = False
        #: Handle of the in-flight background drain process (owner: the
        #: driver), kept so teardown/diagnostics can interrupt it.
        self.drain_proc = None
        self.degraded_since: Optional[float] = None
        self.cca_marking = False
        self.inactive = False
        #: Diagnostics hook (Figure 11 / Table 3): hold the flow on the
        #: slow path regardless of credits.
        self.pinned_slow = False
        #: Credit-watchdog exponential backoff multiplier (doubles per
        #: reclamation, reset on a genuine credit release).
        self.watchdog_backoff = 1.0
        #: Stuck-slot tracking: when the barrier stopped making progress,
        #: and the fast_delivered count it was last seen at.
        self.barrier_stuck_since: Optional[float] = None
        self.barrier_progress = -1


class CeioArchitecture(IOArchitecture):
    name = "ceio"

    def __init__(self, host: Host, config: Optional[CeioConfig] = None):
        super().__init__(host)
        self.config = config or CeioConfig()
        self.credits = CreditController(host.total_credits)
        self.steering = SteeringTable()
        self.buffer_manager = ElasticBufferManager(host, self.config)
        self.driver = CeioDriver(self)
        self.states: Dict[int, CeioFlowState] = {}
        #: Retained across unregister_flow (like ``_all_rx``) so SW-ring
        #: pop/occupancy sums stay conserved across crash_restart faults.
        self._all_states: Dict[int, CeioFlowState] = {}
        #: Fast-path DMA writes swallowed by a descriptor-drop fault
        #: (their deliveries will never run).
        self.fast_write_drops = 0
        self.buffer_manager.notify = self._notify_ready
        # Deferred ACKs send only the ACK: the packet was already counted
        # accepted at admission (going through _accept again would double-
        # count it in ``rx_accepted`` and unbalance the audit ledger).
        self.buffer_manager.ack_deferred = self._ack_deferred
        self.poll_interval = host.config.nic.arm_poll_interval
        #: Flows with data-path activity since the last control tick — the
        #: ARM loop only inspects these plus a rotating inactivity slice,
        #: keeping the tick O(active flows) with thousands registered.
        self._touched: set = set()
        self._inactive_scan_pos = 0
        self.fast_packets = 0.0
        self.slow_packets = 0.0
        self.overdraft = 0.0
        self.upgrades = 0.0
        self.degrades = 0.0
        #: Graceful-degradation counters (repro.faults recovery paths).
        self.credit_reclaimed = 0.0
        self.swring_holes = 0.0
        self.spilled = 0.0
        #: Overload guardrail (open-loop demand): shed at admission when
        #: per-flow queues exceed the configured limits. None when off.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(self.config.admission_ring_limit,
                                self.config.admission_slow_bytes_limit)
            if self.config.admission_control else None)
        host.nic.arm.spawn_loop(self._control_tick,
                                period=self.poll_interval, name="ceio-ctl")
        host.nic.arm.spawn_loop(self._reactivate_tick,
                                period=self.config.reactivation_period,
                                name="ceio-react")
        self._reactivation_cycle: List[int] = []
        #: Slow-path RED marking stream off the seeded registry (was a
        #: fixed-seed Random that ignored ``--seed``).
        self._mark_rng = host.rng.stream("ceio.mark")

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def register_flow(self, flow: Flow) -> FlowRx:
        rx = super().register_flow(flow)
        if flow.flow_id not in self.states:
            state = CeioFlowState(flow)
            self.states[flow.flow_id] = state
            self._all_states[flow.flow_id] = state
            self.credits.add_flows([flow.flow_id])
            self.steering.install(flow.flow_id, SteeringAction.FAST_PATH)
        return rx

    def unregister_flow(self, flow: Flow) -> None:
        """Quiesce and tear down a flow (also the app-crash path: the
        restarted worker re-registers from scratch)."""
        fid = flow.flow_id
        super().unregister_flow(flow)
        state = self.states.pop(fid, None)
        # Remove steering *before* interrupting the drain: the drain's
        # finally-block calls on_drain_complete -> _maybe_upgrade, which
        # bails out on a missing rule instead of resurrecting the flow.
        self.steering.remove(fid)
        # A crashed app can never release its in-flight buffers; fold the
        # credits back into the account first so remove_flow returns them
        # to the reserve instead of parking them as departed-inflight.
        self.credits.reclaim_inflight(fid, self.sim.now)
        self.credits.remove_flow(fid)
        if state is not None:
            proc = state.drain_proc
            if proc is not None and proc.is_alive:
                try:
                    proc.interrupt("flow unregistered")
                except SimulationError:
                    pass  # between scheduling points; it will exit on its own
        self.buffer_manager.forget_flow(fid)
        self._touched.discard(fid)

    def flow_state(self, flow_id: int) -> CeioFlowState:
        return self.states[flow_id]

    # ------------------------------------------------------------------
    # NIC data path
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet):
        """Steer one packet: a plain call that returns None or its
        waiting tail (see :meth:`IOArchitecture.on_packet`). The slow
        path always has a tail: its on-NIC memory write waits on a
        bandwidth take."""
        self.rx_offered += 1
        fid = packet.flow.flow_id
        state = self.states.get(fid)
        rx = self.flows.get(fid)
        if state is None or rx is None:
            self._drop(packet, rx)
            return None
        if self._dedup(packet, rx):
            return None
        if self.admission is not None and not self.admission.admit(
                len(state.swring), self.buffer_manager.slow_bytes(fid)):
            self._shed(packet, rx)
            return None
        action = self.steering.match(fid, packet.size, self.sim.now)
        self._touched.add(fid)
        if action is SteeringAction.DROP:
            self._drop(packet, rx)
            return None
        if action is SteeringAction.FAST_PATH and not self.buffer_manager.fast_path_paused:
            return self._fast_path(packet, state, rx)
        return self._slow_path(packet, state, rx)

    def _fast_path(self, packet: Packet, state: CeioFlowState, rx: FlowRx):
        if not self.credits.consume(packet.flow.flow_id, self.sim.now):
            # Rule still says fast because the ARM core hasn't polled the
            # counters yet; the packet over-admits (bounded by poll lag)
            # and borrows against future releases.
            self.credits.consume_overdraft(packet.flow.flow_id, self.sim.now)
            self.overdraft += 1
        self.fast_packets += 1
        state.swring.note_fast_issued()
        rx.in_use += 1
        self.delivery_inflight += 1
        record = RxRecord(packet, next(_keys), path="fast")
        self._accept(packet)

        write = DmaWrite(record.key, packet.size, ddio=True,
                         deliver=partial(self._fast_delivered, record,
                                         state.swring, rx),
                         flow_id=packet.flow.flow_id)
        tail = self.host.nic.dma.write_to_host(write)
        if write.dropped:
            # Descriptor-drop fault: the accepted packet will never deliver.
            # Account the loss to the flow (it was ACKed, so the sender
            # will not retransmit); the consumed credit and descriptor leak
            # until the watchdog/ release recover them — the realistic
            # failure mode the chaos suite exercises.
            self.delivery_inflight -= 1
            self.fast_write_drops += 1
            self.dma_write_drops += 1
            rx.dropped += 1
        return tail

    def _fast_delivered(self, record: RxRecord, swring: SwRing, rx: FlowRx,
                        now: float) -> None:
        # The RMT/credit pipeline stage adds latency but is pipelined, so
        # it is charged at delivery rather than serialised in the firmware
        # loop. Equal delay on every packet preserves order.
        self.sim.call_later(self.config.fast_path_overhead_ns,
                            self._push_fast, record.packet, record, swring,
                            rx)

    def _ack_deferred(self, packet: Packet) -> None:
        if self.ack is not None:
            self.ack(packet, True)

    def _push_fast(self, packet, record, swring, rx) -> None:
        t = self.sim.now
        self.delivery_inflight -= 1
        packet.delivered_time = t
        record.deliver_time = t
        swring.push_fast(record)
        rx.delivered += 1
        self._notify_ready(packet.flow.flow_id)

    def _slow_path(self, packet: Packet, state: CeioFlowState, rx: FlowRx):
        record = RxRecord(packet, next(_keys), path="slow")
        ok = yield from self.buffer_manager.buffer_packet(packet)
        if not ok:
            # On-NIC memory exhausted. Graceful degradation: spill the
            # packet straight to host DRAM (cache-bypassing DMA write) so
            # the flow keeps making progress instead of wedging; with the
            # fallback disabled this is a counted drop.
            if self.config.spill_to_dram:
                yield from self._spill_to_dram(packet, state, rx,
                                               record) or ()
            else:
                self.buffer_manager.slow_drops += 1
                self._drop(packet, rx)
            return
        if self.states.get(packet.flow.flow_id) is not state:
            # The flow was torn down (app crash) while the packet was being
            # written to on-NIC memory: its buffer was re-created for a dead
            # flow id that nothing will drain. Free it and drop the packet.
            self.buffer_manager.forget_flow(packet.flow.flow_id)
            self._drop(packet, rx)
            return
        self.slow_packets += 1
        rx.in_use += 1
        rx.delivered += 1
        if self.config.phase_exclusivity:
            state.swring.push_slow(record)
        else:
            state.swring.push_slow_unordered(record)
        # RED-style CCA trigger: mark proportionally to slow-path backlog
        # so DCTCP holds the standing queue near the guard level. Past the
        # top of the band, marking alone cannot throttle below the senders'
        # minimum windows, so the ACK itself is withheld until the packet
        # drains — hard receiver backpressure that self-clocks the senders
        # to the slow path's service rate.
        p = self.buffer_manager.mark_probability(packet.flow.flow_id)
        if p >= 1.0:
            record.defer_ack = True
            self.rx_accepted += 1  # accepted, ACK deferred to the drain
        else:
            mark = state.cca_marking or (p > 0
                                         and self._mark_rng.random() < p)
            self._accept(packet, extra_mark=mark)
        self._notify_ready(packet.flow.flow_id)

    def _spill_to_dram(self, packet: Packet, state: CeioFlowState,
                       rx: FlowRx, record: RxRecord):
        """Overflow fallback: DMA the packet to host DRAM, bypassing both
        on-NIC memory and the DDIO partition. Returns None or the write's
        waiting tail.

        The record enters the SW ring like a slow-path entry (ordering is
        preserved) but needs no later DMA read — it becomes host-resident
        as soon as the write lands; the CPU pays a natural LLC miss when it
        reads the buffer.
        """
        record.path = "host"
        self.spilled += 1
        self.slow_packets += 1
        rx.in_use += 1
        rx.delivered += 1
        if self.config.phase_exclusivity:
            entry = state.swring.push_slow(record)
        else:
            entry = state.swring.push_slow_unordered(record)
        # Claim the entry so no drain selects it for an on-NIC DMA read —
        # the payload was never buffered on the NIC.
        entry.fetching = True
        fid = packet.flow.flow_id
        swring = state.swring

        def deliver(now: float) -> None:
            packet.delivered_time = now
            record.deliver_time = now
            swring.mark_resident(entry)
            entry.fetching = False
            self._notify_ready(fid)

        write = DmaWrite(record.key, packet.size, ddio=False,
                         deliver=deliver, flow_id=fid)
        # Overflow is hard congestion: assert CE on the ACK so senders back
        # off toward whatever rate the spill path sustains.
        self._accept(packet, extra_mark=True)
        tail = self.host.nic.dma.write_to_host(write)
        if write.dropped:
            # The spilled entry can never become host-resident; account the
            # loss to the flow (delivery counters already balanced at
            # admission, so only the flow-visible drop is recorded).
            self.dma_write_drops += 1
            rx.dropped += 1
        return tail

    # ------------------------------------------------------------------
    # Host software API
    # ------------------------------------------------------------------
    def rx_burst(self, flow: Flow, max_packets: int) -> List[RxRecord]:
        """Non-blocking poll (the default data path: ``async_recv``)."""
        return self.driver.async_recv(flow, max_packets)

    def _flow_still_ready(self, fid: int) -> bool:
        # Only *poppable* records count: entries awaiting a slow-path fetch
        # re-notify via the buffer manager when the fetch completes.
        state = self.states.get(fid)
        return state is not None and state.swring.head_ready

    def recv_burst(self, flow: Flow, max_packets: int):
        """Application-side receive honouring the async ablation switch:
        the records, or with ``async_drain`` off the generator of a
        receive that may stall the application (it returns them)."""
        if self.config.async_drain:
            return self.driver.async_recv(flow, max_packets)
        return self._sync_recv(flow, max_packets)

    def _sync_recv(self, flow: Flow, max_packets: int):
        state = self.flow_state(flow.flow_id)
        records = state.swring.pop_ready(max_packets)
        if records or not state.swring.has_nonresident:
            return records
        # Synchronous ablation: the CPU stalls on the PCIe round trip.
        self.driver.sync_fetches += 1
        yield from self.driver._drain_once(state)
        return state.swring.pop_ready(max_packets)

    def release(self, records: List[RxRecord]) -> None:
        self.driver.release(records)

    # ------------------------------------------------------------------
    # ARM control loops
    # ------------------------------------------------------------------
    #: Steering-counter entries one ARM control tick can examine. The scan
    #: of the whole flow table therefore takes ``N / SCAN_FLOWS_PER_TICK``
    #: ticks — the bounded control-plane rate that makes CEIO's active-flow
    #: strategy lag behind fast flow churn at thousands of flows (§6.3,
    #: Figure 12).
    SCAN_FLOWS_PER_TICK = 4

    def _control_tick(self) -> None:
        # Flows with data-path activity since the last tick are handled at
        # full rate (their counters sit hot in the ARM cache)...
        # Sorted: inspection order feeds the event calendar, and set order
        # is hash order (D103).
        touched, self._touched = self._touched, set()
        for fid in sorted(touched):
            state = self.states.get(fid)
            if state is not None:
                self._inspect_flow(fid, state)
        # ...but *inactive* flows are only discovered — in either direction
        # — by the rotating full-table scan, which covers a bounded number
        # of steering entries per tick.
        fids = list(self.states)
        if not fids:
            return
        for _ in range(self.SCAN_FLOWS_PER_TICK):
            self._inactive_scan_pos = (self._inactive_scan_pos + 1) % len(fids)
            fid = fids[self._inactive_scan_pos]
            self._scan_flow(fid, self.states[fid])

    def _inspect_flow(self, fid: int, state: CeioFlowState) -> None:
        """Data-path-driven control: degrade/upgrade/CCA for active flows."""
        now = self.sim.now
        cfg = self.config
        rule = self.steering.get(fid)
        if rule is None or state.inactive:
            return  # reactivation is the scan's job (bounded-rate)
        if rule.action is SteeringAction.FAST_PATH:
            if self.credits.credits_exhausted(fid):
                self._degrade(fid, state)
        else:
            state.cca_marking = self.buffer_manager.overloaded(fid)
            drained_clean = (not state.swring.has_nonresident
                             and self.buffer_manager.slow_bytes(fid) == 0)
            if drained_clean:
                # No longer behaving like a bypass flow: stop donating.
                self.credits.set_donating(fid, False)
            elif (cfg.credit_reallocation
                    and state.degraded_since is not None
                    and now - state.degraded_since
                    > cfg.donation_threshold):
                self.credits.set_donating(fid, True)
            self._maybe_upgrade(fid, state)

    def _scan_flow(self, fid: int, state: CeioFlowState) -> None:
        """Full-table scan entry: inactivity reclamation and reactivation."""
        now = self.sim.now
        cfg = self.config
        rule = self.steering.get(fid)
        if rule is None:
            return
        self._watchdog_check(fid, state, rule, now)
        idle = now - rule.last_hit_time
        if state.inactive:
            if idle < cfg.inactive_timeout:
                # Traffic resumed since the scan last looked: give the flow
                # an active-set share back and let it upgrade.
                state.inactive = False
                self.credits.grant_share(fid, now,
                                         target=self._active_share())
                self._maybe_upgrade(fid, state)
        elif idle > cfg.inactive_timeout:
            state.inactive = True
            self.credits.reclaim(fid)
            # An inactive flow holds no credits: traffic that resumes
            # before the scan reactivates it belongs on the slow path.
            if (rule.action is SteeringAction.FAST_PATH
                    and self.credits.credits_exhausted(fid)):
                self._degrade(fid, state)

    def _watchdog_check(self, fid, state: CeioFlowState, rule,
                        now: float) -> None:
        """Graceful-degradation watchdogs (repro.faults), piggybacked on
        the rotating ARM scan so they cost nothing extra per tick.

        Two independent recoveries:

        - **stuck-slot release**: a phase-exclusivity barrier whose
          fast-path deliveries make no progress for ``swring_stuck_timeout``
          is waiting on DMA writes that were lost; forgive the holes so
          held-back slow entries (and their deferred ACKs) flow again.
        - **credit-loss reclamation**: a flow that keeps receiving packets
          (recent steering hits) while its credit account shows no
          consume/release activity for ``credit_watchdog_timeout`` has had
          its in-flight credits orphaned by lost writes; reclaim them, with
          capped exponential backoff in case the writes were merely slow.

        Both are demand-gated on recent steering hits, so flows that simply
        stopped sending (experiment churn) keep the seeded no-fault
        behaviour bit-identically.
        """
        cfg = self.config
        demand = now - rule.last_hit_time < cfg.credit_watchdog_timeout
        if cfg.swring_stuck_timeout > 0 and state.swring.barrier_unmet():
            progress = state.swring.fast_delivered
            if progress != state.barrier_progress:
                state.barrier_progress = progress
                state.barrier_stuck_since = now
            elif (demand and state.barrier_stuck_since is not None
                    and now - state.barrier_stuck_since
                    > cfg.swring_stuck_timeout):
                released = state.swring.release_barrier_holes()
                self.swring_holes += released
                state.barrier_stuck_since = None
                state.barrier_progress = -1
                self._touched.add(fid)
        else:
            state.barrier_stuck_since = None
            state.barrier_progress = -1
        if not cfg.credit_watchdog or not demand:
            return
        acct = self.credits.accounts.get(fid)
        if acct is None or acct.inflight <= 0:
            return
        timeout = cfg.credit_watchdog_timeout * state.watchdog_backoff
        if now - acct.last_activity > timeout:
            lost = self.credits.reclaim_inflight(fid, now)
            if lost:
                self.credit_reclaimed += lost
                state.watchdog_backoff = min(
                    state.watchdog_backoff * 2.0,
                    cfg.credit_watchdog_backoff_cap)
                self._touched.add(fid)

    def _active_share(self) -> float:
        """Fair share over currently *active* flows (§4.1 Q3: credits of
        inactive flows are recycled for the flows actually sending)."""
        active = sum(1 for st in self.states.values() if not st.inactive)
        return self.credits.total / max(1, active)

    def _degrade(self, fid: int, state: CeioFlowState) -> None:
        self.steering.set_action(fid, SteeringAction.SLOW_PATH)
        state.degraded_since = self.sim.now
        state.swring.set_barrier()
        self.degrades += 1

    def pin_slow(self, flow: Flow) -> None:
        """Force a flow onto the slow path ("setting its credit to zero",
        §6.3) — used by the fast-vs-slow-path micro-benchmarks."""
        state = self.states[flow.flow_id]
        state.pinned_slow = True
        self.credits.reclaim(flow.flow_id)
        self._degrade(flow.flow_id, state)

    def unpin(self, flow: Flow) -> None:
        state = self.states[flow.flow_id]
        state.pinned_slow = False
        self.credits.grant_share(flow.flow_id, self.sim.now)
        self._maybe_upgrade(flow.flow_id, state)

    #: A flow may upgrade while this much slow-path data remains: the
    #: residue keeps draining and ordering is preserved (new fast entries
    #: enqueue behind the pending slow entries), but waiting for a *fully*
    #: empty slow ring would postpone the upgrade forever under continuous
    #: arrivals — the drain would chase a moving target.
    UPGRADE_RESIDUE_BYTES = 8 * 1024

    def _maybe_upgrade(self, fid: int, state: CeioFlowState) -> None:
        if self.steering.get(fid) is None:
            return  # flow unregistered (e.g. mid-drain crash teardown)
        if state.pinned_slow:
            return
        if state.inactive:
            # Inactive flows come back only through the bounded-rate scan
            # (or the round-robin timer) — that is the §4.1 Q3 mechanism
            # whose lag Figure 12 measures.
            return
        if self.buffer_manager.slow_bytes(fid) > self.UPGRADE_RESIDUE_BYTES:
            return
        if self.credits.credits_exhausted(fid):
            # A fully drained flow may pull idle credits from the reserve
            # (e.g. its own earlier donations) to become credit-worthy.
            acct = self.credits.account(fid)
            deficit = 1.0 - acct.available
            self.credits.grant_from_reserve(
                fid, min(max(deficit, 0.0) + 4.0, self._active_share()))
            if self.credits.credits_exhausted(fid):
                return
        self.steering.set_action(fid, SteeringAction.FAST_PATH)
        state.degraded_since = None
        state.cca_marking = False
        state.swring.clear_barrier()
        self.credits.set_donating(fid, False)
        self.upgrades += 1

    def on_drain_complete(self, state: CeioFlowState) -> None:
        """Called by the driver when a drain leaves the slow ring empty."""
        self._maybe_upgrade(state.flow.flow_id, state)

    def _reactivate_tick(self) -> None:
        """Round-robin backup (§4.1 Q3): give one inactive flow its share
        back per tick so every flow periodically gets fast-path access."""
        if not self._reactivation_cycle:
            self._reactivation_cycle = [fid for fid, st in self.states.items()
                                        if st.inactive]
        while self._reactivation_cycle:
            fid = self._reactivation_cycle.pop()
            state = self.states.get(fid)
            if state is None or not state.inactive:
                continue
            state.inactive = False
            self.credits.grant_share(fid, self.sim.now,
                                     target=self._active_share())
            self._maybe_upgrade(fid, state)
            break

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    def fast_fraction(self) -> float:
        total = self.fast_packets + self.slow_packets
        return self.fast_packets / total if total else 0.0

    # ------------------------------------------------------------------
    # Conservation auditing (repro.audit)
    # ------------------------------------------------------------------
    def audit_register(self, ledger) -> None:
        """CEIO replaces the base delivery/ring equations (the SW ring is
        the application-facing structure) and adds credit, elastic-buffer
        and phase-barrier conservation."""
        rxs = self._all_rx
        states = self._all_states
        credits = self.credits
        bm = self.buffer_manager

        delivery = ledger.account("arch.delivery", "packets",
                                  barrier_safe=True)
        delivery.debit("accepted", (self, "rx_accepted"))
        delivery.credit("delivered",
                        lambda: sum(rx.delivered for rx in rxs.values()))
        delivery.credit("inflight", (self, "delivery_inflight"))
        delivery.credit("fast_write_drops", (self, "fast_write_drops"))

        rings = ledger.account("arch.app_rings", "packets", barrier_safe=True)
        rings.debit("delivered",
                    lambda: sum(rx.delivered for rx in rxs.values()))
        rings.credit("popped",
                     lambda: sum(st.swring.popped for st in states.values()))
        rings.credit("ring_occupancy",
                     lambda: sum(len(st.swring) for st in states.values()))

        desc = ledger.account("arch.descriptors", "descriptors",
                              barrier_safe=True)
        desc.debit("accepted", (self, "rx_accepted"))
        desc.credit("released", (self, "released_records"))
        desc.credit("in_use", lambda: sum(rx.in_use for rx in rxs.values()))

        barrier = ledger.account("ceio.fast_barrier", "packets",
                                 barrier_safe=True, bounded=True)
        barrier.debit("issued_minus_delivered",
                      lambda: sum(st.swring.fast_issued
                                  - st.swring.fast_delivered
                                  for st in states.values()))
        barrier.slack("inflight", (self, "delivery_inflight"))
        barrier.slack("fast_write_drops", (self, "fast_write_drops"))

        pool = ledger.account("ceio.credit_pool", "credits",
                              tolerance=1e-6, barrier_safe=True)
        pool.debit("audit", credits.audit)
        pool.credit("total", (credits, "total"))

        flux = ledger.account("ceio.credit_flux", "credits",
                              tolerance=1e-6, barrier_safe=True)
        flux.debit("consumed", (credits, "consumed_total"))
        flux.credit("released", (credits, "released_total"))
        flux.credit("reclaimed", (credits, "reclaimed_total"))
        flux.credit("inflight",
                    lambda: sum(a.inflight
                                for a in credits.accounts.values())
                    + credits._departed_inflight)

        elastic = ledger.account("ceio.elastic_entries", "packets",
                                 barrier_safe=True)
        elastic.debit("buffered", (bm, "buffered_packets"))
        elastic.credit("removed", (bm, "audit_removed"))
        elastic.credit("forgotten", (bm, "forgotten_entries"))
        # Still on the NIC = slow-path SW-ring entries awaiting a drain, read
        # from the rings rather than the buffer's own count, so a drain that
        # marks an entry resident without counting the packet removed shows.
        elastic.credit("nonresident_slow", self._audit_slow_backlog)

        self._register_admission_account(ledger)

    def _audit_slow_backlog(self) -> int:
        """Slow-path SW-ring entries of live flows still awaiting a drain
        (O(ring) scan). Spilled entries never held on-NIC memory; a crash
        teardown forgets a flow's ring and its on-NIC buffer in the same
        step."""
        return sum(1 for state in self.states.values()
                   for entry in state.swring.iter_nonresident()
                   if entry.record.path == "slow")


# Register with the architecture registry (done here rather than in
# repro.io_arch to avoid a circular import).
from ..io_arch import ARCHITECTURES as _ARCHITECTURES  # noqa: E402

_ARCHITECTURES["ceio"] = CeioArchitecture
