"""Integration tests for the CEIO runtime: steering flips, elastic
buffering, drains, ordering, lazy release, reallocation, pinning."""

import pytest

from repro.core import CeioConfig
from repro.core.steering import SteeringAction
from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind, SaturatingSource
from repro.sim.units import US
from tests.conftest import host_endpoint


def small_host(llc=256 * 1024):
    return HostConfig(cache=CacheConfig(size=llc))


def build(ceio_config=None, llc=256 * 1024, seed=3):
    bed = host_endpoint(host_config=small_host(llc), seed=seed)
    arch = build_arch("ceio", bed.host,
                      **({"config": ceio_config} if ceio_config else {}))
    bed.install_io_arch(arch)
    return bed, arch


def add_flow(bed, arch, name="f", payload=1000, kind=FlowKind.CPU_INVOLVED,
             packets_per_message=1, outstanding=16, start=True):
    flow = Flow(kind, name=name, message_payload=payload,
                packets_per_message=packets_per_message)
    bed.add_flow(flow)
    src = SaturatingSource(bed.sim, bed.senders[flow.flow_id],
                           outstanding=outstanding)
    if start:
        src.start()
    return flow, src


def test_register_flow_installs_rule_and_credits():
    bed, arch = build()
    flow, _src = add_flow(bed, arch, start=False)
    rule = arch.steering.get(flow.flow_id)
    assert rule is not None
    assert rule.action is SteeringAction.FAST_PATH
    acct = arch.credits.account(flow.flow_id)
    assert acct.available == pytest.approx(arch.credits.total)


def test_unregister_flow_cleans_up():
    bed, arch = build()
    flow, _src = add_flow(bed, arch, start=False)
    arch.unregister_flow(flow)
    assert arch.steering.get(flow.flow_id) is None
    assert flow.flow_id not in arch.states
    assert arch.credits.audit() == pytest.approx(arch.credits.total)


def test_fast_path_consumes_credits_and_delivers():
    bed, arch = build()
    flow, _src = add_flow(bed, arch)
    bed.run(until=100 * US)
    state = arch.states[flow.flow_id]
    assert arch.fast_packets.value > 0
    # Packets delivered through the SW ring in order.
    records = arch.rx_burst(flow, 64)
    seqs = [r.packet.seq for r in records]
    assert seqs == sorted(seqs)


def test_credit_exhaustion_degrades_to_slow_path():
    bed, arch = build(llc=64 * 1024)  # tiny budget: 16 credits
    flow, _src = add_flow(bed, arch, outstanding=64)
    bed.run(until=200 * US)  # nothing consumes => credits exhaust
    assert arch.degrades.value >= 1
    assert arch.slow_packets.value > 0
    assert arch.steering.get(flow.flow_id).action is SteeringAction.SLOW_PATH
    assert bed.host.nic.memory.used > 0


def test_slow_path_preserves_order_end_to_end():
    bed, arch = build(llc=64 * 1024)
    flow, _src = add_flow(bed, arch, outstanding=64)
    # Alternate run / consume so fast and slow phases interleave.
    seqs = []
    for _ in range(20):
        bed.run(until=bed.sim.now + 20 * US)
        records = arch.rx_burst(flow, 64)
        seqs.extend(r.packet.seq for r in records)
        arch.release(records)
    fresh = [s for s in seqs]
    assert fresh == sorted(fresh), "SW ring must deliver in order"
    assert arch.slow_packets.value > 0, "slow path must have engaged"
    state = arch.states[flow.flow_id]
    assert state.swring.out_of_order == 0


def test_drain_and_upgrade_back_to_fast_path():
    bed, arch = build(llc=64 * 1024)
    flow, src = add_flow(bed, arch, outstanding=64)
    bed.run(until=100 * US)
    assert arch.steering.get(flow.flow_id).action is SteeringAction.SLOW_PATH
    src.stop()
    # Consume everything *before the inactivity timer*: credits replenish,
    # the slow ring drains, and the flow upgrades back to the fast path.
    for _ in range(120):
        bed.run(until=bed.sim.now + 5 * US)
        records = arch.rx_burst(flow, 256)
        arch.release(records)
        if arch.steering.get(flow.flow_id).action is SteeringAction.FAST_PATH:
            break
    assert arch.steering.get(flow.flow_id).action is SteeringAction.FAST_PATH
    assert arch.upgrades.value >= 1


def test_lazy_release_waits_for_message_boundary():
    config = CeioConfig(lazy_release=True, release_batch=1000)
    bed, arch = build(config)
    flow, _src = add_flow(bed, arch, packets_per_message=4, outstanding=4)
    bed.run(until=100 * US)
    acct = arch.credits.account(flow.flow_id)
    records = []
    # Collect exactly 3 records of one message (no boundary yet).
    while len(records) < 3:
        got = arch.rx_burst(flow, 3 - len(records))
        records.extend(got)
        if len(records) < 3:
            bed.run(until=bed.sim.now + 10 * US)
    inflight_before = acct.inflight
    arch.release([r for r in records if not r.packet.last_in_message][:3])
    assert acct.inflight == inflight_before  # no replenish yet


def test_eager_release_replenishes_immediately():
    config = CeioConfig(lazy_release=False)
    bed, arch = build(config)
    flow, _src = add_flow(bed, arch)
    bed.run(until=100 * US)
    acct = arch.credits.account(flow.flow_id)
    records = arch.rx_burst(flow, 4)
    assert records
    inflight_before = acct.inflight
    arch.release(records)
    assert acct.inflight == inflight_before - len(
        [r for r in records if r.path == "fast"])


def test_pin_slow_and_unpin():
    bed, arch = build()
    flow, _src = add_flow(bed, arch)
    arch.pin_slow(flow)
    bed.run(until=100 * US)
    assert arch.steering.get(flow.flow_id).action is SteeringAction.SLOW_PATH
    assert arch.slow_packets.value > 0
    fast_before = arch.fast_packets.value
    arch.unpin(flow)
    for _ in range(50):
        bed.run(until=bed.sim.now + 10 * US)
        arch.release(arch.rx_burst(flow, 256))
        if arch.fast_packets.value > fast_before:
            break
    assert arch.fast_packets.value > fast_before


def test_donation_redirects_bypass_credits():
    config = CeioConfig(donation_threshold=20 * US)
    bed, arch = build(config, llc=64 * 1024)
    involved, _ = add_flow(bed, arch, name="rpc", payload=500)
    bypass, _ = add_flow(bed, arch, name="dfs", payload=1000,
                         kind=FlowKind.CPU_BYPASS,
                         packets_per_message=32, outstanding=8)
    bed.run(until=300 * US)  # bypass exhausts + degrades + donates
    assert arch.credits.account(bypass.flow_id).donating


def test_overdraft_borrowed_not_leaked():
    bed, arch = build(llc=64 * 1024)
    flow, _src = add_flow(bed, arch, outstanding=64)
    bed.run(until=300 * US)
    assert arch.overdraft.value > 0
    assert arch.credits.audit() == pytest.approx(arch.credits.total)


def test_fast_fraction_metric():
    bed, arch = build()
    flow, _src = add_flow(bed, arch)
    bed.run(until=50 * US)
    assert 0.0 <= arch.fast_fraction() <= 1.0


def test_sync_ablation_recv_burst_blocks_on_fetch():
    config = CeioConfig(async_drain=False)
    bed, arch = build(config, llc=64 * 1024)
    flow, _src = add_flow(bed, arch, outstanding=64)
    bed.run(until=200 * US)
    assert arch.slow_packets.value > 0

    def consumer(sim):
        got = []
        for _ in range(30):
            records = yield from arch.recv_burst(flow, 32)
            got.extend(records)
            arch.release(records)
        return got

    # run_process would run forever (the source never stops); step the
    # simulator until just the consumer completes.
    proc = bed.sim.process(consumer(bed.sim))
    while not proc.triggered:
        bed.sim.step()
    got = proc.value
    assert arch.driver.sync_fetches.value > 0
    seqs = [r.packet.seq for r in got]
    assert seqs == sorted(seqs)
