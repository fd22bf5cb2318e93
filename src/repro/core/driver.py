"""The host-side CEIO driver (§5): ``recv`` / ``async_recv`` / ``post_recv``.

The driver is what applications (or the DPDK/RDMA shims) link against. It
polls the per-flow SW ring, initiates slow-path DMA reads, and performs
**lazy credit release**: credits consumed by fast-path buffers are
replenished only once the application has processed a *batch of messages*
(§4.1) — per-packet releases are the ablation mode.
"""

from __future__ import annotations

from typing import Dict, List

from ..net.packet import Flow
from ..sim import Event, Interrupt, Process, Simulator

__all__ = ["CeioDriver"]


def _first_of(sim: Simulator, procs: List[Process]) -> Event:
    """An event that fires when the first of ``procs`` ends, failing with
    its exception if it crashed. Every process keeps the callback, so a
    later crash is delivered here and ignored instead of raising out of
    the kernel (:meth:`Process._crash` raises only with no waiter); the
    caller must look at the processes it still holds (the drain loop
    re-raises a crashed batch when it prunes them)."""
    first = sim.event()

    def ended(proc: Process) -> None:
        if first.triggered:
            return
        if proc.ok:
            first.succeed()
        else:
            first.fail(proc.value)

    for proc in procs:
        proc.add_callback(ended)
    return first


class CeioDriver:
    def __init__(self, runtime):
        self.runtime = runtime
        self.sim = runtime.sim
        self.config = runtime.config
        #: flow_id -> fast-path buffers released but not yet credited.
        self._release_accum: Dict[int, int] = {}
        self.sync_fetches = 0.0
        self.async_fetches = 0.0

    # ------------------------------------------------------------------
    # Receive APIs
    # ------------------------------------------------------------------
    def async_recv(self, flow: Flow, max_packets: int) -> List:
        """Non-blocking receive: return host-resident records immediately
        and kick off DMA reads for slow-path entries in the background, so
        the application overlaps fetches with processing (§4.2)."""
        state = self.runtime.flow_state(flow.flow_id)
        records = state.swring.pop_ready(max_packets)
        if state.swring.has_nonresident:
            self._start_drain(state, background=True)
        return records

    def recv(self, flow: Flow, max_packets: int):
        """Process (blocking receive): wait until at least one record is
        available, fetching slow-path entries synchronously if needed."""
        state = self.runtime.flow_state(flow.flow_id)
        while True:
            records = state.swring.pop_ready(max_packets)
            if records:
                return records
            if state.swring.has_nonresident:
                self.sync_fetches += 1
                yield from self._drain_once(state)
                continue
            # Nothing delivered yet: poll.
            yield self.runtime.poll_interval

    def post_recv(self, flow: Flow, buffers: int) -> None:
        """Zero-copy support: the application donates ``buffers`` receive
        buffers, growing the flow's descriptor budget."""
        rx = self.runtime.flows[flow.flow_id]
        rx.ring_entries += buffers

    # ------------------------------------------------------------------
    # Release + lazy credit replenishment
    # ------------------------------------------------------------------
    def release(self, records: List) -> None:
        """Application finished these buffers. Fast-path buffers replenish
        credits lazily: at message boundaries or every ``release_batch``."""
        runtime = self.runtime
        boundary_flows = set()
        for record in records:
            fid = record.flow.flow_id
            # Retained index: releases arriving after a crash teardown
            # still balance the descriptor ledger (repro.audit).
            rx = runtime._all_rx.get(fid)
            if rx is not None:
                rx.in_use -= 1
                runtime.released_records += 1
            runtime.host.llc.release(record.key)
            if record.path != "fast":
                continue  # slow-path buffers never held credits
            self._release_accum[fid] = self._release_accum.get(fid, 0) + 1
            if not self.config.lazy_release:
                boundary_flows.add(fid)
            elif (record.packet.last_in_message
                  or self._release_accum[fid] >= self.config.release_batch):
                boundary_flows.add(fid)
        # Sorted: replenish order reaches the credit controller and the
        # upgrade path, and set order is hash order (D103).
        for fid in sorted(boundary_flows):
            self._replenish(fid)

    def _replenish(self, fid: int) -> None:
        count = self._release_accum.pop(fid, 0)
        if count:
            self.runtime.credits.release(fid, count, self.sim.now)
            # A genuine release proves the release path works again: let
            # the credit watchdog re-arm at its base timeout.
            state = self.runtime.states.get(fid)
            if state is not None:
                state.watchdog_backoff = 1.0
            # Replenishment may make the flow upgrade-eligible.
            self.runtime._touched.add(fid)

    # ------------------------------------------------------------------
    # Slow-path drains
    # ------------------------------------------------------------------
    def _start_drain(self, state, background: bool) -> None:
        if state.draining:
            return
        state.draining = True
        self.async_fetches += 1

        batch = self._batch_size(state.flow)
        prefetch = max(self.config.drain_prefetch, 3 * batch)
        manager = self.runtime.buffer_manager

        def drain(sim):
            # Up to two batch reads in flight: the PCIe round trip of one
            # overlaps the wire serialisation of the next (this pipelining
            # is what keeps the slow-path gap small for >=4 KB messages).
            outstanding = []
            try:
                while state.swring.has_nonresident or outstanding:
                    for proc in outstanding:
                        if proc.triggered and not proc.ok:
                            # Crashed after another batch had already
                            # fired _first_of: raise it here instead of
                            # pruning it away.
                            raise proc.value
                    outstanding = [p for p in outstanding if not p.triggered]
                    # Demand-driven prefetch: never run more than a window
                    # ahead of the application, or drained data would evict
                    # unread fast-path buffers from the DDIO partition.
                    if (state.swring.ready_count < prefetch
                            and len(outstanding) < 2):
                        entries = state.swring.nonresident_head(batch)
                        if entries:
                            # Claim synchronously: the spawned process only
                            # starts on the next tick, and an unclaimed
                            # entry must not be selected twice.
                            for entry in entries:
                                entry.fetching = True
                            outstanding.append(sim.process(
                                manager.drain_batch(state.swring, entries),
                                name="drain-batch"))
                            continue
                    if outstanding:
                        yield _first_of(sim, outstanding)
                    else:
                        yield self.runtime.poll_interval
            except Interrupt:
                pass  # flow unregistered mid-drain (crash teardown)
            finally:
                state.draining = False
                self.runtime.on_drain_complete(state)

        state.drain_proc = self.sim.process(
            drain(self.sim), name=f"drain-f{state.flow.flow_id}")

    def _batch_size(self, flow: Flow) -> int:
        """Packets per DMA-read batch: latency-sized for CPU-involved
        flows, byte-budget-sized for bypass flows (amortises the PCIe
        round trip over large scatter-gather reads). Capped in bytes so a
        single read never exceeds the PCIe burst window."""
        frame = flow.message_payload + 42
        cap = max(1, (96 * 1024) // frame)
        if flow.is_cpu_involved:
            return max(1, min(self.config.drain_batch, cap))
        want = max(self.config.drain_batch,
                   self.config.drain_batch_bytes // frame)
        return max(1, min(want, cap))

    def _drain_once(self, state):
        """Synchronous single-batch drain (blocking ``recv`` and the
        async-off ablation)."""
        entries = state.swring.nonresident_head(
            self._batch_size(state.flow))
        if not entries:
            yield self.runtime.poll_interval
            return
        yield from self.runtime.buffer_manager.drain_batch(
            state.swring, entries)
        if not state.swring.has_nonresident:
            self.runtime.on_drain_complete(state)
