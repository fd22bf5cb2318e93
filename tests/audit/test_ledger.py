"""Unit tests for the conservation ledger primitive (repro.audit.ledger)."""

import pytest

from repro.audit.ledger import Account, Ledger, read_source


class Box:
    def __init__(self, n):
        self.n = n


class Flows:
    """A component's counters: plain float fields, incremented in place."""

    def __init__(self):
        self.inflow = 0.0
        self.outflow = 0.0


def test_read_source_kinds():
    assert read_source((Box(7), "n")) == 7
    assert read_source(lambda: 11.5) == 11.5


def test_exact_account_balances():
    flows = Flows()
    resident = Box(0)
    acct = (Account("layer", "packets")
            .debit("inflow", (flows, "inflow"))
            .credit("outflow", (flows, "outflow"))
            .credit("resident", (resident, "n")))
    flows.inflow += 10
    flows.outflow += 6
    resident.n = 4
    snap = acct.snapshot()
    assert snap["ok"]
    assert snap["delta"] == 0
    assert snap["debits"] == {"inflow": 10}
    assert snap["credits"] == {"outflow": 6, "resident": 4}


def test_exact_account_detects_leak_in_both_directions():
    flows = Flows()
    acct = Account("layer", "packets").debit("in", (flows, "inflow")).credit(
        "out", (flows, "outflow"))
    flows.inflow += 5
    flows.outflow += 3
    snap = acct.snapshot()
    assert not snap["ok"] and snap["delta"] == 2
    flows.outflow += 4
    snap = acct.snapshot()
    assert not snap["ok"] and snap["delta"] == -2


def test_tolerance_absorbs_float_dust():
    acct = Account("credits", "credits", tolerance=1e-6)
    acct.debit("total", lambda: 96.0)
    acct.credit("held", lambda: 96.0 + 1e-9)
    assert acct.snapshot()["ok"]


def test_bounded_account_allows_slack_but_not_negative_delta():
    flows = Flows()
    window = Box(1)
    acct = (Account("handler", "packets", bounded=True)
            .debit("in", (flows, "inflow")).credit("out", (flows, "outflow"))
            .slack("window", (window, "n")))
    flows.inflow += 4
    flows.outflow += 3
    assert acct.snapshot()["ok"]          # delta 1 <= slack 1
    flows.inflow += 1
    assert not acct.snapshot()["ok"]      # delta 2 > slack 1
    window.n = 2
    assert acct.snapshot()["ok"]
    flows.outflow += 5
    assert not acct.snapshot()["ok"]      # delta -3 < 0: bounded is one-sided


def test_capacity_invariant_shape():
    occupancy = Box(90)
    acct = (Account("cap", "bytes", bounded=True)
            .debit("resident", (occupancy, "n"))
            .slack("capacity", lambda: 100))
    assert acct.snapshot()["ok"]
    occupancy.n = 101
    assert not acct.snapshot()["ok"]


def test_float_source_rejected_at_registration():
    # A wiring line left as ``nic.rx_packets`` passes the field's current
    # value, which would otherwise be read as a stale number forever.
    flows = Flows()
    acct = Account("nic.mac", "packets")
    with pytest.raises(TypeError, match="'nic.mac'.*'received'"):
        acct.debit("received", flows.inflow)
    with pytest.raises(TypeError, match="'nic.mac'.*'handled'"):
        acct.credit("handled", ("inflow", flows))
    with pytest.raises(TypeError, match="'nic.mac'.*'window'"):
        acct.slack("window", 1)


def test_misspelt_attribute_rejected_at_registration():
    acct = Account("nic.mac", "packets")
    with pytest.raises(AttributeError,
                       match="'nic.mac'.*'received'.*'inflwo'"):
        acct.debit("received", (Flows(), "inflwo"))


def test_callable_and_existing_attribute_sources_accepted():
    flows = Flows()
    acct = (Account("layer", "packets")
            .debit("inflow", (flows, "inflow"))
            .credit("outflow", lambda: flows.outflow)
            .slack("window", (Box(1), "n")))
    flows.inflow += 2
    flows.outflow += 2
    assert acct.snapshot()["ok"]


def test_unknown_unit_rejected():
    with pytest.raises(ValueError, match="unknown unit"):
        Account("x", "florins")


def test_ledger_create_or_fetch_and_order():
    ledger = Ledger()
    a = ledger.account("one", "packets")
    b = ledger.account("two", "bytes")
    assert ledger.account("one", "bytes") is a  # fetch ignores new params
    assert a.unit == "packets"
    assert [acct.name for acct in ledger] == ["one", "two"]
    assert len(ledger) == 2
    assert b.unit == "bytes"
