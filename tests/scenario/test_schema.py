"""Schema round-trip and rejection suite: every invalid field yields a
path-addressed ``ScenarioError``; validation is normalisation; canonical
serialisation is a fixed point."""

import json
from dataclasses import asdict, fields

import pytest

from repro.core import CeioConfig
from repro.io_arch import ARCHITECTURES, LegacyDdioArch
from repro.scenario import (ScenarioError, TEMPLATE_NAMES, canonical,
                            template, validate)


def _base(**overrides):
    spec = {
        "version": 1,
        "topology": {"kind": "star", "params": {"n_clients": 2}},
        "tenants": [{"name": "t", "workload": "kvstore"}],
    }
    spec.update(overrides)
    return spec


# ----------------------------------------------------------------------
# Round-trip / normalisation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_canonical_is_a_fixed_point_for_every_template(name):
    c = canonical(template(name))
    assert canonical(json.loads(c)) == c


def test_validate_fills_all_defaults():
    normal = validate(_base())
    assert normal["seed"] == 0 and normal["name"] == ""
    assert normal["topology"]["params"] == {"n_clients": 2, "n_servers": 1}
    assert normal["topology"]["links"]["rate_gbps"] == 200.0
    assert normal["topology"]["links"]["ack_delay_us"] is None
    assert normal["hosts"]["*"]["arch"] == "ceio"
    assert normal["hosts"]["*"]["cores"] is None
    tenant = normal["tenants"][0]
    assert tenant["host"] == "s0"  # first server
    assert tenant["flows"] == 1 and tenant["outstanding"] == 96
    assert normal["fault_plan"] == []
    assert normal["measure"] == {"warmup_us": 400.0, "duration_us": 600.0}


def test_validate_is_idempotent():
    once = validate(_base())
    assert validate(once) == once


def test_explicit_values_survive_round_trip():
    spec = _base(seed=11, name="x",
                 hosts={"s0": {"arch": "shring", "scale": 2}},
                 fault_plan=[{"site": "net.link", "kind": "loss",
                              "start": 1.0, "duration": 2.0,
                              "host": "s0"}])
    spec["topology"]["links"] = {"ack_delay_us": 0.2}
    normal = validate(spec)
    assert normal["seed"] == 11
    assert normal["topology"]["links"]["ack_delay_us"] == 0.2
    assert normal["hosts"]["s0"]["arch"] == "shring"
    assert normal["hosts"]["s0"]["scale"] == 2
    assert normal["fault_plan"][0]["host"] == "s0"


# ----------------------------------------------------------------------
# Rejection suite: (mutation, expected error path)
# ----------------------------------------------------------------------
def _no_topology():
    spec = _base()
    del spec["topology"]
    return spec


def _no_tenants():
    spec = _base()
    del spec["tenants"]
    return spec


REJECTIONS = [
    (lambda: "not a dict", ""),
    (lambda: _base(bogus=1), "bogus"),
    (lambda: _base(version=2), "version"),
    (lambda: _base(version=None), "version"),
    (lambda: _base(seed=True), "seed"),
    (lambda: _base(seed="0"), "seed"),
    (lambda: _base(name=7), "name"),
    (lambda: _no_topology(), "topology"),
    (lambda: _base(topology=[]), "topology"),
    (lambda: _base(topology={}), "topology.kind"),
    (lambda: _base(topology={"kind": "ring"}), "topology.kind"),
    (lambda: _base(topology={"kind": "star"}), "topology.params.n_clients"),
    (lambda: _base(topology={"kind": "star",
                             "params": {"n_clients": 0}}),
     "topology.params.n_clients"),
    (lambda: _base(topology={"kind": "two_host",
                             "params": {"n_clients": 2}}),
     "topology.params.n_clients"),
    (lambda: _base(topology={"kind": "star",
                             "params": {"n_clients": 2},
                             "links": {"rate_gbps": -1}}),
     "topology.links.rate_gbps"),
    (lambda: _base(topology={"kind": "star",
                             "params": {"n_clients": 2},
                             "links": {"mtu": 9000}}),
     "topology.links.mtu"),
    (lambda: _base(hosts={"nope": {}}), "hosts.nope"),
    (lambda: _base(hosts={"c0": {}}), "hosts.c0"),  # client, not server
    (lambda: _base(hosts={"*": {"arch": "tcp"}}), "hosts.*.arch"),
    (lambda: _base(hosts={"*": {"cores": 0}}), "hosts.*.cores"),
    (lambda: _base(hosts={"*": {"scale": -2}}), "hosts.*.scale"),
    (lambda: _base(hosts={"*": {"set_associative_cache": 1}}),
     "hosts.*.set_associative_cache"),
    (lambda: _base(hosts={"*": {"ways": 8}}), "hosts.*.ways"),
    (lambda: _no_tenants(), "tenants"),
    (lambda: _base(tenants=[]), "tenants"),
    (lambda: _base(tenants=[{"workload": "kvstore"}]), "tenants[0].name"),
    (lambda: _base(tenants=[{"name": "t"}]), "tenants[0].workload"),
    (lambda: _base(tenants=[{"name": "t", "workload": "memcached"}]),
     "tenants[0].workload"),
    (lambda: _base(tenants=[{"name": "t", "workload": "kvstore"},
                            {"name": "t", "workload": "erpc"}]),
     "tenants[1].name"),
    (lambda: _base(tenants=[{"name": "t", "workload": "kvstore",
                             "host": "c0"}]), "tenants[0].host"),
    (lambda: _base(tenants=[{"name": "t", "workload": "kvstore",
                             "flows": -1}]), "tenants[0].flows"),
    (lambda: _base(tenants=[{"name": "t", "workload": "kvstore",
                             "transport": "tcp"}]),
     "tenants[0].transport"),
    (lambda: _base(tenants=[{"name": "t", "workload": "kvstore",
                             "sources": ["ghost"]}]),
     "tenants[0].sources[0]"),
    (lambda: _base(tenants=[{"name": "t", "workload": "kvstore",
                             "priority": 3}]), "tenants[0].priority"),
    (lambda: _base(fault_plan={}), "fault_plan"),
    (lambda: _base(fault_plan=[{"kind": "loss"}]), "fault_plan[0]"),
    (lambda: _base(fault_plan=[{"site": "net.link", "kind": "loss",
                                "host": "c0"}]), "fault_plan[0].host"),
    (lambda: _base(measure={"duration_us": 0}), "measure.duration_us"),
    (lambda: _base(measure={"cooldown_us": 5.0}), "measure.cooldown_us"),
]


@pytest.mark.parametrize("build,path",
                         REJECTIONS,
                         ids=[path or "not-a-mapping"
                              for _, path in REJECTIONS])
def test_invalid_field_is_rejected_with_path(build, path):
    with pytest.raises(ScenarioError) as err:
        validate(build())
    assert err.value.path == path
    # The rendered message leads with the path, so CLI users can find
    # the offending field without a stack trace.
    if path:
        assert str(err.value).startswith(path)


# ----------------------------------------------------------------------
# Open-loop demand block (see docs/WORKLOADS.md)
# ----------------------------------------------------------------------
def _demand(profile=None, tenant=None, **block):
    """A valid two-tenant spec with a demand block, then mutated."""
    spec = _base(tenants=[{"name": "kv", "workload": "kvstore"},
                          {"name": "bg", "workload": "kvstore"}])
    spec["demand"] = {
        "profiles": {"p0": profile if profile is not None
                     else {"kind": "steady", "rate_mpps": 4.0}},
        "tenants": {"kv": tenant if tenant is not None
                    else {"profile": "p0"}},
    }
    spec["demand"].update(block)
    return spec


def test_demand_block_normalises_and_round_trips():
    normal = validate(_demand())
    assert normal["demand"]["window_us"] == 50.0
    entry = normal["demand"]["tenants"]["kv"]
    assert entry["arrivals"] == "poisson"
    assert entry["slo"] == {}
    c = canonical(_demand())
    assert canonical(json.loads(c)) == c
    assert validate(normal) == normal


def test_absent_demand_block_is_omitted_from_normal_form():
    """Closed-loop scenarios keep their canonical bytes: no ``demand``
    key appears unless the input declared one."""
    assert "demand" not in validate(_base())
    assert '"demand"' not in canonical(_base())


def test_ceio_override_normalises():
    spec = _base(hosts={"s0": {"ceio": {"admission_control": True}}})
    normal = validate(spec)
    assert normal["hosts"]["s0"]["ceio"] == {
        **asdict(CeioConfig()), "admission_control": True}
    assert "ceio" not in validate(_base()).get("hosts", {}).get("*", {})


def test_ceio_override_defaults_are_ceio_config_defaults():
    normal = validate(_base(hosts={"*": {"ceio": {}}}))
    assert normal["hosts"]["*"]["ceio"] == asdict(CeioConfig())


def _changed(value):
    """A valid non-default value of the same type."""
    if isinstance(value, bool):
        return not value
    return value * 2 + 1


def test_every_ceio_field_round_trips():
    override = {knob.name: _changed(knob.default)
                for knob in fields(CeioConfig)}
    normal = validate(_base(hosts={"*": {"ceio": override}}))
    ceio = normal["hosts"]["*"]["ceio"]
    assert ceio == override
    assert asdict(CeioConfig(**ceio)) == override
    assert validate(json.loads(canonical(normal))) == normal


@pytest.mark.parametrize("knob", [knob.name for knob in fields(CeioConfig)])
def test_ceio_field_of_wrong_type_is_rejected_with_path(knob):
    with pytest.raises(ScenarioError) as err:
        validate(_base(hosts={"*": {"ceio": {knob: "fast"}}}))
    assert err.value.path == f"hosts.*.ceio.{knob}"
    assert str(err.value).startswith(f"hosts.*.ceio.{knob}: must be ")


def test_zero_flow_tenant_is_valid():
    normal = validate(_base(tenants=[{"name": "t", "workload": "linefs",
                                      "flows": 0}]))
    assert normal["tenants"][0]["flows"] == 0


def test_registered_architecture_is_accepted(monkeypatch):
    monkeypatch.setitem(ARCHITECTURES, "custom", LegacyDdioArch)
    normal = validate(_base(hosts={"*": {"arch": "custom"}}))
    assert normal["hosts"]["*"]["arch"] == "custom"


DEMAND_REJECTIONS = [
    (lambda: _demand(bogus=1), "demand.bogus"),
    (lambda: _demand(window_us=0), "demand.window_us"),
    (lambda: _demand(profiles={}), "demand.profiles"),
    (lambda: _demand(tenants={}), "demand.tenants"),
    (lambda: _demand(tenants={"ghost": {"profile": "p0"}}),
     "demand.tenants.ghost"),
    (lambda: _demand(tenant={"profile": "nope"}),
     "demand.tenants.kv.profile"),
    (lambda: _demand(tenant={"profile": "p0", "bogus": 1}),
     "demand.tenants.kv.bogus"),
    (lambda: _demand(tenant={"profile": "p0", "arrivals": "uniform"}),
     "demand.tenants.kv.arrivals"),
    (lambda: _demand(tenant={"profile": "p0", "shape": 1.0}),
     "demand.tenants.kv.shape"),
    (lambda: _demand(tenant={"profile": "p0",
                             "slo": {"p999_ms": 1.0}}),
     "demand.tenants.kv.slo.p999_ms"),
    (lambda: _demand(tenant={"profile": "p0",
                             "slo": {"p999_us": -5.0}}),
     "demand.tenants.kv.slo.p999_us"),
    (lambda: _demand(profile={"kind": "trapezoid"}),
     "demand.profiles.p0.kind"),
    (lambda: _demand(profile={"kind": "steady"}),
     "demand.profiles.p0.rate_mpps"),
    (lambda: _demand(profile={"kind": "steady", "rate_mpps": -4.0}),
     "demand.profiles.p0.rate_mpps"),
    (lambda: _demand(profile={"kind": "steady", "rate_mpps": 4.0,
                              "peak_mpps": 8.0}),
     "demand.profiles.p0.peak_mpps"),
    (lambda: _demand(profile={"kind": "diurnal", "base_mpps": 4.0,
                              "amplitude": 1.5, "period_us": 100.0}),
     "demand.profiles.p0.amplitude"),
    (lambda: _demand(profile={"kind": "flash_crowd", "base_mpps": 8.0,
                              "peak_mpps": 4.0, "start_us": 0.0,
                              "ramp_us": 1.0, "hold_us": 1.0,
                              "decay_us": 1.0}),
     "demand.profiles.p0.peak_mpps"),
    (lambda: _demand(profile={"kind": "windows", "windows": []}),
     "demand.profiles.p0.windows"),
    (lambda: _demand(profile={"kind": "windows", "windows": [
        {"start_us": 0.0, "end_us": 10.0, "rate_mpps": 0.0}]}),
     "demand.profiles.p0.windows"),
    (lambda: _demand(profile={"kind": "windows", "windows": [
        {"start_us": 0.0, "end_us": 10.0, "rate_mpps": 4.0},
        {"start_us": 5.0, "end_us": 15.0, "rate_mpps": 2.0}]}),
     "demand.profiles.p0.windows[1]"),
    (lambda: _demand(profile={"kind": "windows", "windows": [
        {"start_us": 10.0, "end_us": 5.0, "rate_mpps": 4.0}]}),
     "demand.profiles.p0.windows[0].end_us"),
    (lambda: _base(hosts={"s0": {"ceio": {"bogus": 1}}}),
     "hosts.s0.ceio.bogus"),
    (lambda: _base(hosts={"s0": {"ceio": {"admission_control": 1}}}),
     "hosts.s0.ceio.admission_control"),
    (lambda: _base(hosts={"s0": {"ceio": {"admission_ring_limit": 0}}}),
     "hosts.s0.ceio.admission_ring_limit"),
]


@pytest.mark.parametrize("build,path",
                         DEMAND_REJECTIONS,
                         ids=[path for _, path in DEMAND_REJECTIONS])
def test_invalid_demand_field_is_rejected_with_path(build, path):
    with pytest.raises(ScenarioError) as err:
        validate(build())
    assert err.value.path == path
    assert str(err.value).startswith(path)
