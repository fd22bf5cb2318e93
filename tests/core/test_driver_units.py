"""Unit tests for CEIO driver helpers that need no full testbed."""

from types import SimpleNamespace

import pytest

from repro.core import CeioConfig
from repro.core.driver import CeioDriver
from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind
from repro.sim import Simulator
from tests.conftest import host_endpoint


def build(config=None):
    bed = host_endpoint(HostConfig(cache=CacheConfig(size=256 * 1024)))
    arch = build_arch("ceio", bed.host,
                      **({"config": config} if config else {}))
    bed.install_io_arch(arch)
    return bed, arch


def test_batch_size_latency_class_for_involved():
    bed, arch = build(CeioConfig(drain_batch=32))
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=512)
    bed.add_flow(flow)
    assert arch.driver._batch_size(flow) == 32


def test_batch_size_byte_budget_for_bypass():
    bed, arch = build(CeioConfig(drain_batch=32,
                                 drain_batch_bytes=64 * 1024))
    flow = Flow(FlowKind.CPU_BYPASS, message_payload=1024,
                packets_per_message=64)
    bed.add_flow(flow)
    batch = arch.driver._batch_size(flow)
    assert batch > 32
    assert batch * (1024 + 42) <= 96 * 1024  # PCIe burst safety cap


def test_batch_size_capped_for_jumbo_frames():
    bed, arch = build()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=9000)
    bed.add_flow(flow)
    batch = arch.driver._batch_size(flow)
    assert batch * (9000 + 42) <= 96 * 1024
    assert batch >= 1


def test_post_recv_grows_descriptor_budget():
    bed, arch = build()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=512)
    bed.add_flow(flow)
    rx = arch.flows[flow.flow_id]
    before = rx.ring_entries
    arch.driver.post_recv(flow, 256)
    assert rx.ring_entries == before + 256


def test_release_of_slow_records_never_credits():
    bed, arch = build()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=512)
    bed.add_flow(flow)
    from repro.io_arch.base import RxRecord
    pkt = flow.make_message().packets(flow, 0)[0]
    record = RxRecord(pkt, key=12345, path="slow")
    arch.flows[flow.flow_id].in_use += 1
    acct = arch.credits.account(flow.flow_id)
    inflight_before = acct.inflight
    arch.release([record])
    assert acct.inflight == inflight_before  # slow buffers hold no credits


def test_active_share_scales_with_inactive_count():
    bed, arch = build()
    flows = []
    for i in range(4):
        f = Flow(FlowKind.CPU_INVOLVED, message_payload=512)
        bed.add_flow(f)
        flows.append(f)
    full_share = arch._active_share()
    for f in flows[:2]:
        arch.states[f.flow_id].inactive = True
    assert arch._active_share() == pytest.approx(2 * full_share)


class _Ring:
    """The slice of a SW ring a drain reads: one-packet entries that
    stay nonresident until a batch claims them."""

    ready_count = 0

    def __init__(self, n):
        self.entries = [SimpleNamespace(fetching=False) for _ in range(n)]

    @property
    def has_nonresident(self):
        return any(not entry.fetching for entry in self.entries)

    def nonresident_head(self, n):
        return [entry for entry in self.entries if not entry.fetching][:n]


def test_drain_reraises_a_batch_that_crashes_after_another_ended():
    """Two one-entry batches end at t = 1: the first ends cleanly and
    fires the drain's wait, the second crashes just after. The crash
    must reach the drain, not be pruned with the finished batches."""
    sim = Simulator()
    started = []

    def drain_batch(swring, entries):
        index = len(started)
        started.append(entries)
        yield 1.0
        if index == 1:
            raise ValueError("batch crashed")

    runtime = SimpleNamespace(
        sim=sim, config=SimpleNamespace(drain_batch=1, drain_prefetch=0),
        buffer_manager=SimpleNamespace(drain_batch=drain_batch),
        poll_interval=10.0, on_drain_complete=lambda state: None)
    state = SimpleNamespace(
        draining=False, drain_proc=None, swring=_Ring(2),
        flow=Flow(FlowKind.CPU_INVOLVED, message_payload=512))
    CeioDriver(runtime)._start_drain(state, background=True)
    with pytest.raises(ValueError, match="batch crashed"):
        sim.run()
    assert len(started) == 2 and not state.draining
