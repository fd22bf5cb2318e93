"""Admission control and load shedding at the CEIO runtime level.

The controller itself is conserved by construction (property-tested in
``tests/demand``); these tests pin the *wiring*: the config knobs, the
shed path's ACK-without-spend semantics, and the ``arch.admission``
conservation account under genuine overload.
"""

import pytest

from repro.core import CeioConfig
from repro.core.admission import AdmissionController
from repro.workloads.topo_scenario import compile_scenario


def _spec(rate_mpps, guarded, seed=3):
    host = {"arch": "ceio", "cores": 16}
    if guarded:
        host["ceio"] = {"admission_control": True,
                        "admission_ring_limit": 64}
    return {
        "version": 1,
        "name": "admission-unit",
        "seed": seed,
        "topology": {"kind": "star",
                     "params": {"n_clients": 4, "n_servers": 1}},
        "hosts": {"*": host},
        "tenants": [{"name": "kv", "workload": "kvstore", "host": "s0",
                     "flows": 4, "payload": 144}],
        "demand": {
            "window_us": 50.0,
            "profiles": {"flat": {"kind": "steady",
                                  "rate_mpps": rate_mpps}},
            "tenants": {"kv": {"profile": "flat"}},
        },
        "measure": {"warmup_us": 100.0, "duration_us": 150.0},
    }


def test_controller_rejects_invalid_limits():
    with pytest.raises(ValueError):
        AdmissionController(ring_limit=0, slow_bytes_limit=1024)
    with pytest.raises(ValueError):
        AdmissionController(ring_limit=64, slow_bytes_limit=0)


def test_admission_disabled_by_default():
    assert CeioConfig().admission_control is False
    scenario = compile_scenario(_spec(8.0, guarded=False))
    arch = scenario.fabric.endpoints["s0"].io_arch
    assert arch.admission is None
    scenario.run_measure()
    assert arch.rx_shed == 0


def test_overload_sheds_and_the_admission_account_reconciles():
    scenario = compile_scenario(_spec(96.0, guarded=True))
    arch = scenario.fabric.endpoints["s0"].io_arch
    assert arch.admission is not None
    assert arch.admission.ring_limit == 64
    measurement = scenario.run_measure()["s0"]

    # Demand far above the service ceiling: the guard must engage.
    assert arch.rx_shed > 0
    assert arch.admission.shed == arch.rx_shed

    # Offered == accepted + dropped + shed + duplicates, exactly.
    duplicates = sum(rx.duplicates for rx in arch._all_rx.values())
    assert arch.rx_offered == (arch.rx_accepted
                                     + arch.rx_dropped
                                     + arch.rx_shed + duplicates)

    # Per-flow shed meters sum to the architecture total.
    assert sum(rx.shed for rx in arch._all_rx.values()) \
        == arch.rx_shed

    # The cross-layer audit (including arch.admission) balances.
    assert measurement.audit["ok"] is True
    assert measurement.audit["violations"] == []
    assert measurement.extras["shed"] == arch.rx_shed
    assert measurement.extras["offered"] == arch.rx_offered


def test_underload_sheds_nothing():
    scenario = compile_scenario(_spec(4.0, guarded=True))
    arch = scenario.fabric.endpoints["s0"].io_arch
    scenario.run_measure()
    assert arch.rx_shed == 0
    assert arch.admission.offered == arch.admission.admitted


def test_shed_acks_complete_messages_without_delivery():
    """A shed packet is ACKed unmarked: the sender finishes the message
    (no retransmit storm) but the receiver never processes it — goodput
    and shed are disjoint, and their sum tracks offered load."""
    scenario = compile_scenario(_spec(96.0, guarded=True))
    arch = scenario.fabric.endpoints["s0"].io_arch
    scenario.run_measure()
    # The shed ACK is unmarked, so the lossless fabric sees no
    # retransmits: nothing arrives twice.
    assert sum(rx.duplicates for rx in arch._all_rx.values()) == 0
    # No flow starved and none exempt: shedding is pressure-driven
    # back-off on every flow, not a blanket drop of one victim.
    for rx in arch._all_rx.values():
        assert rx.processed > 0
        assert rx.shed > 0
