"""Unit tests for the declarative fault-plan data model."""

import math
import re
from pathlib import Path

import pytest

from repro.faults import FAULT_SITES, FaultPlan, FaultSpec, injectors
from repro.shard import channel

FAULTS_DOC = Path(__file__).resolve().parents[2] / "docs" / "FAULTS.md"
_DOC_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|([^|]*)\|")


def test_defaults_and_finite():
    spec = FaultSpec("net.link", "loss")
    assert spec.start == 0.0
    assert spec.duration == math.inf
    assert not spec.finite
    assert spec.magnitude == 1.0
    assert FaultSpec("net.link", "loss", duration=10.0).finite


def test_every_registered_site_kind_validates():
    for site, kinds in FAULT_SITES.items():
        for kind in kinds:
            # net.channel is the one site that insists on a finite
            # window (there is no "rest of the run" to restore into).
            kwargs = {"duration": 10.0} if site == "net.channel" else {}
            assert FaultSpec(site, kind, **kwargs).site == site


def fault_site_drift(sites, handled, doc_text):
    """Each way the (site, kind) pairs of ``sites``, the ``handled``
    pairs and the ``site | kinds`` table rows of ``doc_text`` disagree."""
    declared = {(site, kind) for site, kinds in sites.items()
                for kind in kinds}
    documented = set()
    for line in doc_text.splitlines():
        m = _DOC_ROW.match(line.strip())
        if m is not None:
            documented |= {(m.group(1), kind) for kind
                           in re.findall(r"`([^`]+)`", m.group(2))}
    drift = []
    for what, pairs in (("handler", set(handled)), ("docs row", documented)):
        drift += [f"declared {p!r} has no {what}"
                  for p in sorted(declared - pairs)]
        drift += [f"{what} {p!r} is not declared"
                  for p in sorted(pairs - declared)]
    return drift


def test_registry_handlers_and_docs_table_agree():
    """Every declared (site, kind) has exactly one injector, and the
    docs/FAULTS.md "Injection sites" table lists the same pairs."""
    handled = set(injectors._HANDLERS) | set(channel._CHANNEL_HANDLERS)
    doc_text = FAULTS_DOC.read_text(encoding="utf-8")
    assert fault_site_drift(FAULT_SITES, handled, doc_text) == []


def test_unknown_site_rejected():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultSpec("hw.gpu", "loss")


def test_wrong_kind_for_site_rejected():
    with pytest.raises(ValueError, match="supports"):
        FaultSpec("net.link", "dma_stall")


@pytest.mark.parametrize("kwargs", [
    {"start": -1.0},
    {"duration": 0.0},
    {"duration": -5.0},
    {"magnitude": -0.1},
])
def test_bad_window_values_rejected(kwargs):
    with pytest.raises(ValueError):
        FaultSpec("net.link", "loss", **kwargs)


def test_params_normalised_and_looked_up():
    spec = FaultSpec("net.link", "burst_loss",
                     params={"p_bad_good": 0.5, "good_loss": 0.01})
    # Mapping input becomes a sorted tuple (hashable, canonical).
    assert spec.params == (("good_loss", 0.01), ("p_bad_good", 0.5))
    assert spec.param("p_bad_good") == 0.5
    assert spec.param("missing", 7) == 7
    assert hash(spec) == hash(FaultSpec(
        "net.link", "burst_loss",
        params=(("p_bad_good", 0.5), ("good_loss", 0.01))))


def test_non_scalar_param_rejected():
    with pytest.raises(TypeError, match="scalars"):
        FaultSpec("net.link", "loss", params={"bad": [1, 2]})


def test_spec_dict_roundtrip_including_infinite_duration():
    for spec in (FaultSpec("hw.nic", "descriptor_drop", start=5.0,
                           duration=10.0, magnitude=0.25, flow="kv0",
                           stream="s", params={"a": 1}),
                 FaultSpec("hw.cpu", "slowdown", magnitude=4.0)):
        data = spec.to_dict()
        assert FaultSpec.from_dict(data) == spec
    # inf duration serialises as None (JSON-safe) and comes back as inf.
    assert FaultSpec("net.link", "loss").to_dict()["duration"] is None


def test_plan_container_semantics():
    empty = FaultPlan()
    assert not empty
    assert len(empty) == 0
    plan = FaultPlan((FaultSpec("net.link", "loss", duration=1.0),))
    assert plan
    assert list(plan) == [FaultSpec("net.link", "loss", duration=1.0)]
    assert plan == FaultPlan((FaultSpec("net.link", "loss", duration=1.0),))
    assert plan != empty


def test_plan_json_roundtrip_and_canonical_stability():
    plan = FaultPlan((
        FaultSpec("hw.nic", "descriptor_drop", start=500.0, duration=200.0,
                  magnitude=1.0),
        FaultSpec("net.link", "burst_loss", magnitude=0.5,
                  params={"p_good_bad": 0.1}),
    ))
    text = plan.canonical()
    assert FaultPlan.from_json(text) == plan
    assert FaultPlan.from_json(text).canonical() == text
    assert FaultPlan.from_dicts(plan.to_dicts()) == plan
    # Canonical form is compact and key-sorted: safe as a cache-key part.
    assert " " not in text


# ----------------------------------------------------------------------
# Multi-host qualifier (repro.topo fabrics)
# ----------------------------------------------------------------------
def test_host_qualifier_defaults_to_none_and_is_not_serialised():
    spec = FaultSpec("net.link", "loss")
    assert spec.host is None
    assert "host" not in spec.to_dict()
    # Pre-multi-host canonical form, byte for byte: cache keys derived
    # from FaultPlan.canonical() must never move for single-host plans.
    assert FaultPlan((spec,)).canonical() == (
        '[{"duration":null,"flow":null,"kind":"loss","magnitude":1.0,'
        '"params":{},"site":"net.link","start":0.0,"stream":""}]')


def test_host_qualifier_round_trips():
    spec = FaultSpec("hw.nic", "descriptor_drop", host="s1")
    data = spec.to_dict()
    assert data["host"] == "s1"
    assert FaultSpec.from_dict(data) == spec
    plan = FaultPlan((spec,))
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_split_by_host_partitions_and_defaults_to_primary():
    plan = FaultPlan((
        FaultSpec("net.link", "loss"),
        FaultSpec("hw.nic", "descriptor_drop", host="s1"),
        FaultSpec("net.link", "burst_loss", host="s0"),
        FaultSpec("hw.cache", "ddio_reconfig"),
    ))
    parts = plan.split_by_host("s0")
    assert set(parts) == {"s0", "s1"}
    assert [s.kind for s in parts["s0"].specs] == [
        "loss", "burst_loss", "ddio_reconfig"]
    assert [s.kind for s in parts["s1"].specs] == ["descriptor_drop"]
