"""Bounded elastic-buffer memory (§4.2).

On-NIC memory holds a slow-path packet only until the driver drains it.
The buffer keeps per-flow counts and the SW ring keeps the records. The
``ceio.elastic_entries`` account ties the two together: packets buffered
equal those removed by a drain, forgotten by a crash teardown, or still
behind a non-resident slow-path SW-ring entry.
"""

import pytest

from repro.audit import Ledger, Reconciler
from repro.core import ElasticBufferManager
from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind, SaturatingSource
from repro.scenario import template
from repro.sim.units import US
from repro.workloads.topo_scenario import compile_scenario
from tests.conftest import host_endpoint

WARMUP_US = 100.0
DURATION_US = 150.0


def _run(duration_us):
    spec = template("paper-baseline")
    spec["measure"] = {"warmup_us": WARMUP_US, "duration_us": duration_us}
    scenario = compile_scenario(spec)
    return scenario, scenario.run()


def _manager(scenario):
    return scenario.fabric.endpoints["host"].io_arch.buffer_manager


def _on_nic_packets(manager):
    return sum(len(buf) for buf in manager.buffers.values())


def _elastic(report):
    (entry,) = [entry for entry in report.entries
                if entry["account"] == "ceio.elastic_entries"]
    return entry


@pytest.fixture(scope="module")
def runs():
    return {scale: _run(scale * DURATION_US) for scale in (1, 2)}


@pytest.mark.parametrize("scale", [1, 2])
def test_on_nic_count_is_the_nonresident_slow_backlog(runs, scale):
    scenario, result = runs[scale]
    manager = _manager(scenario)
    assert result["host"]["audit"]["ok"]
    elastic = _elastic(scenario.reconciler.check(now=scenario.fabric.sim.now))
    assert elastic["ok"]
    assert (elastic["credits"]["nonresident_slow"]
            == _on_nic_packets(manager) > 0)
    assert manager.audit_removed > 0
    # Drained packets leave: what stays is a sliver of what was buffered.
    assert _on_nic_packets(manager) < manager.buffered_packets.value / 4


def test_on_nic_count_does_not_grow_with_duration(runs):
    short, long = (_manager(runs[scale][0]) for scale in (1, 2))
    assert long.buffered_packets.value > 1.5 * short.buffered_packets.value
    assert _on_nic_packets(long) < 1.5 * _on_nic_packets(short)


def test_skipped_decrement_trips_the_elastic_account(monkeypatch):
    """Seeded bug: the drain frees on-NIC bytes and marks the entry
    host-resident but never counts the packet as removed. The account
    reads the SW rings, not the buffer's own count, so it must fail."""
    drained = ElasticBufferManager._drained

    def leaky(self, buf, size):
        drained(self, buf, size)
        buf.packets += 1
        self.audit_removed -= 1

    monkeypatch.setattr(ElasticBufferManager, "_drained", leaky)
    _scenario, result = _run(DURATION_US)
    violated = {v["account"] for v in result["host"]["audit"]["violations"]}
    assert violated == {"ceio.elastic_entries"}


def test_crash_during_on_nic_write_frees_the_packet(monkeypatch):
    """A flow torn down while its slow-path packet is being written to
    on-NIC memory must not leave that packet's bytes on the NIC."""
    bed = host_endpoint(host_config=HostConfig(
        cache=CacheConfig(size=256 * 1024)), seed=3)
    arch = build_arch("ceio", bed.host)
    bed.install_io_arch(arch)
    flow = Flow(FlowKind.CPU_INVOLVED, name="f", message_payload=1000)
    bed.add_flow(flow)
    SaturatingSource(bed.sim, bed.senders[flow.flow_id],
                     outstanding=16).start()
    arch.pin_slow(flow)

    memory = bed.host.nic.memory
    write = memory.write
    crashed = []

    def crashing_write(nbytes):
        yield from write(nbytes)
        if not crashed:
            # The write completes in the step that resumes buffer_packet:
            # tear the flow down before the packet reaches its buffer.
            crashed.append(bed.sim.now)
            arch.unregister_flow(flow)

    monkeypatch.setattr(memory, "write", crashing_write)
    ledger = Ledger()
    arch.audit_register(ledger)
    reconciler = Reconciler(ledger)
    for _ in range(8):
        bed.run(until=bed.sim.now + 25 * US)
        report = reconciler.check(now=bed.sim.now, barrier_only=True)
        assert report.ok, report.violations
    assert crashed
    manager = arch.buffer_manager
    assert flow.flow_id not in manager.buffers
    assert manager.forgotten_entries >= 1
    assert memory.used == 0
