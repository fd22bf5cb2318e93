"""Reconciler + report-collector tests, including the deliberately broken
ledger fixture the acceptance criteria call for: a violation must surface
a named who-owes-whom delta, not just a boolean."""

import pytest

from repro.audit import (
    Ledger,
    Reconciler,
    drain_reports,
    pending_report_count,
    record_report,
)


class _Counts:
    """Plain float counter fields, as the instrumented components keep."""

    def __init__(self):
        self.handled = 0.0
        self.accepted = 0.0
        self.dropped = 0.0


def _broken_ledger():
    """NIC handled 100 packets but the architecture only accounted 97 —
    three packets vanished between the handler and the rings."""
    ledger = Ledger()
    counts = _Counts()
    counts.handled += 100
    counts.accepted += 90
    counts.dropped += 7
    (ledger.account("nic.handler", "packets", barrier_safe=True)
     .debit("handled", (counts, "handled"))
     .credit("accepted", (counts, "accepted"))
     .credit("dropped", (counts, "dropped")))
    (ledger.account("net.wire", "packets")
     .debit("transmitted", lambda: 100)
     .credit("received", lambda: 100))
    return ledger


def test_broken_ledger_reports_named_delta():
    report = Reconciler(_broken_ledger()).check(now=123.0)
    assert not report.ok
    assert report.checked == 2
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation["account"] == "nic.handler"
    assert violation["unit"] == "packets"
    assert violation["delta"] == 3
    # The who-owes-whom sentence names both sides, the amount, the unit,
    # and the per-source breakdown.
    message = violation["message"]
    assert "nic.handler" in message
    assert "handled owes accepted+dropped 3 packets" in message
    assert "handled=100" in message and "accepted=90" in message


def test_deficit_on_the_debit_side_swaps_owing_direction():
    ledger = Ledger()
    (ledger.account("dma.engine", "packets")
     .debit("requests", lambda: 5)
     .credit("issued", lambda: 9))
    report = Reconciler(ledger).check()
    assert "issued owes requests 4 packets" in report.violations[0]["message"]


def test_barrier_only_skips_unsafe_accounts():
    ledger = _broken_ledger()
    # Make the barrier-unsafe account the broken one.
    ledger.accounts["net.wire"].credit("ghost", lambda: 5)
    full = Reconciler(ledger).check()
    assert {v["account"] for v in full.violations} == {"nic.handler",
                                                       "net.wire"}
    barrier = Reconciler(ledger).check(barrier_only=True)
    assert barrier.checked == 1
    assert {v["account"] for v in barrier.violations} == {"nic.handler"}
    assert barrier.to_dict()["barrier_only"] is True


def test_assert_balanced_raises_with_message():
    reconciler = Reconciler(_broken_ledger())
    with pytest.raises(AssertionError, match="nic.handler"):
        reconciler.assert_balanced(now=7.0)


def test_report_to_dict_shapes():
    ok_report = Reconciler(Ledger()).check(now=1.0)
    data = ok_report.to_dict()
    assert data == {"ok": True, "now": 1.0, "checked": 0, "violations": []}
    bad = Reconciler(_broken_ledger()).check(now=2.0)
    with_balances = bad.to_dict(include_balances=True)
    assert len(with_balances["accounts"]) == 2
    assert not with_balances["ok"]


def test_collector_mailbox_drains_and_summarises():
    drain_reports()  # isolate from any earlier state
    assert drain_reports() is None
    record_report(Reconciler(_broken_ledger()).check(now=1.0))
    record_report(Reconciler(Ledger()).check(now=2.0))
    assert pending_report_count() == 2
    summary = drain_reports()
    assert summary["reports"] == 2
    assert summary["checked"] == 2
    assert summary["violations"] == 1
    assert any("nic.handler" in d for d in summary["details"])
    assert drain_reports() is None  # drained


def test_collector_caps_detail_messages():
    drain_reports()
    for _ in range(12):
        record_report(Reconciler(_broken_ledger()).check())
    summary = drain_reports()
    assert summary["violations"] == 12
    assert len(summary["details"]) == 8
