"""End-to-end audit tests against real scenarios: healthy runs balance,
faulted runs balance, and a deliberately corrupted meter is caught with a
named who-owes-whom delta."""

import pytest

import repro.core.runtime  # noqa: F401  (registers the "ceio" architecture)
from repro.faults import FaultPlan, FaultSpec
from repro.io_arch import ARCHITECTURES
from repro.sim.units import US
from repro.workloads import compile_scenario, two_host_spec

WARMUP = 100 * US
DURATION = 150 * US


def _scenario(arch, faults=None):
    spec = two_host_spec(
        [{"name": "kv", "workload": "kvstore", "flows": 2},
         {"name": "dfs", "workload": "linefs", "flows": 1,
          "payload": 1024, "chunk_packets": 32, "outstanding": 8}],
        seed=11, arch=arch, scale=8, warmup_us=WARMUP / US,
        duration_us=DURATION / US,
        fault_plan=faults.to_dicts() if faults else ())
    return compile_scenario(spec)


def _endpoint(scenario):
    return scenario.fabric.endpoints["host"]


def _drop_plan(magnitude=1.0):
    return FaultPlan((FaultSpec("hw.nic", "descriptor_drop",
                                start=WARMUP + 20 * US, duration=60 * US,
                                magnitude=magnitude),))


#: Accounts each architecture's healthy run checks.
ACCOUNTS_PER_ARCH = {
    "ceio": 19, "baseline": 15, "shring": 16, "mpq": 16, "hostcc": 15,
}


def test_every_registered_architecture_is_audited():
    assert set(ACCOUNTS_PER_ARCH) == set(ARCHITECTURES)


@pytest.mark.parametrize("arch,n_accounts", ACCOUNTS_PER_ARCH.items())
def test_healthy_run_balances(arch, n_accounts):
    scenario = _scenario(arch)
    measurement = scenario.run_measure()["host"]
    audit = measurement.audit
    assert audit is not None
    assert audit["ok"], audit["violations"]
    assert audit["checked"] == n_accounts
    accounts = scenario.reconciler.ledger.accounts
    for name in ("arch.delivery", "arch.app_rings", "arch.descriptors"):
        assert name in accounts


@pytest.mark.parametrize("arch", ["ceio", "baseline", "shring", "hostcc"])
def test_descriptor_drop_run_still_balances(arch):
    scenario = _scenario(arch, faults=_drop_plan())
    measurement = scenario.run_measure()["host"]
    assert measurement.audit["ok"], measurement.audit["violations"]
    if arch != "shring":  # shring wedges on ring-full before the window
        assert _endpoint(scenario).host.nic.dma.dropped_writes > 0


@pytest.mark.parametrize("arch", ["baseline", "hostcc"])
def test_dma_drops_reach_measurement_dropped(arch):
    """Silent-drop accounting: NIC DMA drops surface as per-flow and
    measurement-level drops for the non-CEIO backends too."""
    scenario = _scenario(arch, faults=_drop_plan())
    measurement = scenario.run_measure()["host"]
    assert _endpoint(scenario).io_arch.dma_write_drops > 0
    assert measurement.dropped > 0
    assert sum(fm.dropped for fm in measurement.flows) == measurement.dropped


def test_corrupted_meter_is_caught_with_named_delta():
    scenario = _scenario("ceio")
    scenario.run_measure()
    report = scenario.reconciler.check(now=scenario.fabric.sim.now)
    assert report.ok
    # Forge three accepted packets that no layer ever handled.
    _endpoint(scenario).io_arch.rx_accepted += 3
    report = scenario.reconciler.check(now=scenario.fabric.sim.now)
    assert not report.ok
    messages = [v["message"] for v in report.violations]
    assert any("nic.handler" in m and "3 packets" in m for m in messages), (
        messages)


def test_audit_report_rides_on_measurement_and_mailbox():
    from repro.audit import drain_reports
    drain_reports()
    scenario = _scenario("baseline")
    measurement = scenario.run_measure()["host"]
    summary = drain_reports()
    assert summary["reports"] == 1
    assert summary["checked"] == measurement.audit["checked"]
    assert summary["violations"] == 0
