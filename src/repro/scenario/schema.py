"""The declarative scenario schema: validation, normalisation, canonical
serialisation.

A *scenario* is a JSON-safe dict describing one complete multi-host
experiment: a topology (by builder kind + parameters), per-host receiver
stacks (I/O architecture + config overrides), tenants (workload mixes
over erpc/kvstore/linefs flows), an optional fault plan
(:mod:`repro.faults` spec dicts, with the multi-host ``host`` qualifier),
and a measurement window. The schema is strict: unknown keys anywhere
are rejected, every error is *path-addressed* (``tenants[2].payload:
must be a positive integer``), and :func:`normalize` fills every default
so :func:`canonical` round-trips byte-identically::

    canonical(json.loads(canonical(spec))) == canonical(spec)

Compilation into a wired fabric is
:class:`repro.workloads.topo_scenario.TopoScenario`'s job. This module
only builds :mod:`repro.topo` graphs and reads ``CeioConfig``'s fields
and the architecture registry: validating a scenario never builds a
simulation.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.config import CeioConfig
from ..faults import FaultPlan, FaultSpec
from ..io_arch import ARCHITECTURES
from ..sim.units import US, gbps
from ..topo import Topology, fat_tree, leaf_spine, star, two_host
from ..topo.graph import (DEFAULT_BUFFER, DEFAULT_DELAY,
                          DEFAULT_ECN_THRESHOLD)

__all__ = ["ScenarioError", "SCHEMA_VERSION", "ARCHES", "WORKLOADS",
           "TOPOLOGY_KINDS", "validate", "normalize", "canonical",
           "build_topology", "fault_plan_of"]

SCHEMA_VERSION = 1

ARCHES: Tuple[str, ...] = ("baseline", "hostcc", "shring", "mpq", "ceio")
WORKLOADS: Tuple[str, ...] = ("erpc", "kvstore", "linefs")
TOPOLOGY_KINDS: Tuple[str, ...] = ("two_host", "star", "leaf_spine",
                                   "fat_tree")

#: Builder parameters per topology kind: name -> (required, default).
#: Every value is a positive integer.
_KIND_PARAMS: Dict[str, Tuple[Tuple[str, Optional[int]], ...]] = {  # repro: noqa=D106 -- registry, never mutated
    "two_host": (),
    "star": (("n_clients", None), ("n_servers", 1)),
    "leaf_spine": (("leaves", None), ("spines", None),
                   ("hosts_per_leaf", None), ("servers_per_leaf", 1)),
    "fat_tree": (("k", None), ("hosts_per_edge", 1),
                 ("servers_per_pod", 1)),
}

_LINK_DEFAULTS: Tuple[Tuple[str, Any], ...] = (
    ("rate_gbps", 200.0),
    ("delay_us", DEFAULT_DELAY / US),
    ("ack_delay_us", None),
    ("buffer", DEFAULT_BUFFER),
    ("ecn_threshold", DEFAULT_ECN_THRESHOLD),
)

_HOST_DEFAULTS: Tuple[Tuple[str, Any], ...] = (
    ("arch", "ceio"),
    ("scale", 4),
    ("io_buf_size", 2048),
    ("set_associative_cache", False),
    ("cores", None),
)

_TENANT_DEFAULTS: Tuple[Tuple[str, Any], ...] = (
    ("host", None),
    ("flows", 1),
    ("payload", 144),
    ("transport", "dpdk"),
    ("outstanding", 96),
    ("open_loop_mpps", None),
    ("chunk_packets", 32),
    ("app_extra_cycles", 0.0),
    ("sources", ()),
)

_MEASURE_DEFAULTS: Tuple[Tuple[str, Any], ...] = (
    ("warmup_us", 400.0),
    ("duration_us", 600.0),
)

#: Per-tenant demand-block defaults (inside ``demand.tenants.<name>``).
_DEMAND_TENANT_DEFAULTS: Tuple[Tuple[str, Any], ...] = (
    ("arrivals", "poisson"),
    ("mean_messages", 20.0),
    ("shape", 1.5),
    ("intra_gap_us", 2.0),
    ("slo", {}),
)

_SLO_KEYS = ("p99_us", "p999_us", "p9999_us", "min_goodput_mpps")
_ARRIVAL_KINDS = ("poisson", "sessions")


class ScenarioError(ValueError):
    """A validation failure, addressed by path into the scenario dict."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def _expect_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioError(path, "must be an object")
    return value


def _reject_unknown(data: Mapping[str, Any], allowed, path: str) -> None:
    for key in data:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}" if path else str(key),
                                f"unknown key (allowed: {sorted(allowed)})")


def _pos_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ScenarioError(path, "must be a positive integer")
    return value


def _nonneg_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ScenarioError(path, "must be a non-negative integer")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(path, "must be a boolean")
    return value


def _nonneg_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value < 0:
        raise ScenarioError(path, "must be a non-negative number")
    return float(value)


def _pos_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value <= 0:
        raise ScenarioError(path, "must be a positive number")
    return float(value)


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(path, "must be a string")
    return value


def _choice(value: Any, options, path: str) -> str:
    value = _string(value, path)
    if value not in options:
        raise ScenarioError(path, f"must be one of {list(options)}")
    return value


# ----------------------------------------------------------------------
# Section validators (each returns the normalised section)
# ----------------------------------------------------------------------
def _validate_topology(data: Any) -> Dict[str, Any]:
    data = _expect_mapping(data, "topology")
    _reject_unknown(data, ("kind", "params", "links"), "topology")
    if "kind" not in data:
        raise ScenarioError("topology.kind", "is required")
    kind = _choice(data["kind"], TOPOLOGY_KINDS, "topology.kind")
    raw_params = _expect_mapping(data.get("params", {}), "topology.params")
    spec = dict(_KIND_PARAMS[kind])
    _reject_unknown(raw_params, tuple(spec), "topology.params")
    params: Dict[str, int] = {}
    for name, default in _KIND_PARAMS[kind]:
        if name in raw_params:
            params[name] = _pos_int(raw_params[name],
                                    f"topology.params.{name}")
        elif default is None:
            raise ScenarioError(f"topology.params.{name}",
                                f"is required for kind {kind!r}")
        else:
            params[name] = default
    raw_links = _expect_mapping(data.get("links", {}), "topology.links")
    _reject_unknown(raw_links, tuple(n for n, _ in _LINK_DEFAULTS),
                    "topology.links")
    links: Dict[str, Any] = {}
    for name, default in _LINK_DEFAULTS:
        value = raw_links.get(name, default)
        path = f"topology.links.{name}"
        if name == "ack_delay_us":
            links[name] = (None if value is None
                           else _nonneg_number(value, path))
        elif name in ("buffer", "ecn_threshold"):
            links[name] = _pos_int(value, path)
        else:
            links[name] = _pos_number(value, path)
    return {"kind": kind, "params": params, "links": links}


#: How a ``ceio`` override value is checked, by its ``CeioConfig`` type.
_CEIO_CHECKS = {"bool": _boolean, "int": _pos_int,  # repro: noqa=D106 -- registry, never mutated
                "float": _nonneg_number}


def _validate_ceio_override(data: Any, path: str) -> Dict[str, Any]:
    """Per-host :class:`CeioConfig` override: every field by name, type
    and default, fully defaulted when present. The ``ceio`` host key is
    omitted from the normal form when absent, so scenarios without one
    keep their canonical bytes (and runner cache keys)."""
    data = _expect_mapping(data, path)
    knobs = fields(CeioConfig)
    _reject_unknown(data, tuple(knob.name for knob in knobs), path)
    return {knob.name: _CEIO_CHECKS[knob.type](
                data.get(knob.name, knob.default), f"{path}.{knob.name}")
            for knob in knobs}


def _validate_hosts(data: Any, servers: List[str]) -> Dict[str, Any]:
    data = _expect_mapping(data if data is not None else {}, "hosts")
    hosts: Dict[str, Any] = {}
    allowed_keys = tuple(n for n, _ in _HOST_DEFAULTS) + ("ceio",)
    for host in data:
        path = f"hosts.{host}"
        if host != "*" and host not in servers:
            raise ScenarioError(
                path, f"unknown server host (servers: {servers})")
        entry = _expect_mapping(data[host], path)
        _reject_unknown(entry, allowed_keys, path)
        normal: Dict[str, Any] = {}
        if "ceio" in entry:
            normal["ceio"] = _validate_ceio_override(entry["ceio"],
                                                     f"{path}.ceio")
        for name, default in _HOST_DEFAULTS:
            value = entry.get(name, default)
            sub = f"{path}.{name}"
            if name == "arch":
                # The shipped architectures, plus any registered in
                # repro.io_arch.ARCHITECTURES at run time.
                normal[name] = _choice(value, ARCHES + tuple(
                    sorted(set(ARCHITECTURES) - set(ARCHES))), sub)
            elif name == "set_associative_cache":
                normal[name] = _boolean(value, sub)
            elif name == "cores":
                # None = keep the testbed's core count (HostConfig default).
                normal[name] = (None if value is None
                                else _pos_int(value, sub))
            else:
                normal[name] = _pos_int(value, sub)
        hosts[host] = normal
    if "*" not in hosts:
        hosts["*"] = dict(_HOST_DEFAULTS)
    return {name: hosts[name] for name in sorted(hosts)}


def _validate_tenants(data: Any, topo: Topology) -> List[Dict[str, Any]]:
    if not isinstance(data, list) or not data:
        raise ScenarioError("tenants", "must be a non-empty array")
    servers = [spec.name for spec in topo.server_hosts]
    host_names = sorted(topo.hosts)
    tenants: List[Dict[str, Any]] = []
    seen_names = set()
    allowed = ("name", "workload") + tuple(n for n, _ in _TENANT_DEFAULTS)
    for i, raw in enumerate(data):
        path = f"tenants[{i}]"
        raw = _expect_mapping(raw, path)
        _reject_unknown(raw, allowed, path)
        if "name" not in raw:
            raise ScenarioError(f"{path}.name", "is required")
        name = _string(raw["name"], f"{path}.name")
        if not name or name in seen_names:
            raise ScenarioError(f"{path}.name",
                                "must be unique and non-empty")
        seen_names.add(name)
        if "workload" not in raw:
            raise ScenarioError(f"{path}.workload", "is required")
        workload = _choice(raw["workload"], WORKLOADS, f"{path}.workload")
        tenant: Dict[str, Any] = {"name": name, "workload": workload}
        for key, default in _TENANT_DEFAULTS:
            value = raw.get(key, default)
            sub = f"{path}.{key}"
            if key == "host":
                if value is None:
                    value = servers[0]
                elif _string(value, sub) not in servers:
                    raise ScenarioError(
                        sub, f"unknown server host (servers: {servers})")
            elif key == "transport":
                value = _choice(value, ("dpdk", "rdma"), sub)
            elif key == "open_loop_mpps":
                value = None if value is None else _pos_number(value, sub)
            elif key == "app_extra_cycles":
                value = _nonneg_number(value, sub)
            elif key == "flows":
                # 0 = the tenant is wired later (TopoScenario.add_flow).
                value = _nonneg_int(value, sub)
            elif key == "sources":
                if not isinstance(value, (list, tuple)):
                    raise ScenarioError(sub, "must be an array of hosts")
                value = [_string(v, f"{sub}[{j}]")
                         for j, v in enumerate(value)]
                for j, src in enumerate(value):
                    if src not in topo.hosts:
                        raise ScenarioError(
                            f"{sub}[{j}]",
                            f"unknown host (hosts: {host_names})")
            else:
                value = _pos_int(value, sub)
            tenant[key] = value
        tenants.append(tenant)
    return tenants


def _validate_fault_plan(data: Any, servers: List[str]
                         ) -> List[Dict[str, Any]]:
    if data is None:
        return []
    if not isinstance(data, list):
        raise ScenarioError("fault_plan", "must be an array of fault specs")
    specs: List[Dict[str, Any]] = []
    for i, raw in enumerate(data):
        path = f"fault_plan[{i}]"
        raw = _expect_mapping(raw, path)
        try:
            spec = FaultSpec.from_dict(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(path, str(exc)) from None
        if spec.host is not None and spec.host not in servers:
            raise ScenarioError(f"{path}.host",
                                f"unknown server host (servers: {servers})")
        specs.append(spec.to_dict())
    return specs


def _validate_profile(data: Any, path: str) -> Dict[str, Any]:
    """One rate profile, normalised to its ``to_dict`` form."""
    from ..demand.profiles import PROFILE_KINDS, profile_from_dict

    data = _expect_mapping(data, path)
    if "kind" not in data:
        raise ScenarioError(f"{path}.kind", "is required")
    kind = _choice(data["kind"], PROFILE_KINDS, f"{path}.kind")
    if kind == "steady":
        _reject_unknown(data, ("kind", "rate_mpps"), path)
        if "rate_mpps" not in data:
            raise ScenarioError(f"{path}.rate_mpps", "is required")
        _pos_number(data["rate_mpps"], f"{path}.rate_mpps")
    elif kind == "diurnal":
        _reject_unknown(data, ("kind", "base_mpps", "amplitude",
                               "period_us", "phase_us"), path)
        for key in ("base_mpps", "amplitude", "period_us"):
            if key not in data:
                raise ScenarioError(f"{path}.{key}", "is required")
        _pos_number(data["base_mpps"], f"{path}.base_mpps")
        amp = _nonneg_number(data["amplitude"], f"{path}.amplitude")
        if amp >= 1.0:
            raise ScenarioError(f"{path}.amplitude", "must be in [0, 1)")
        _pos_number(data["period_us"], f"{path}.period_us")
        if "phase_us" in data:
            _nonneg_number(data["phase_us"], f"{path}.phase_us")
    elif kind == "flash_crowd":
        _reject_unknown(data, ("kind", "base_mpps", "peak_mpps", "start_us",
                               "ramp_us", "hold_us", "decay_us"), path)
        for key in ("base_mpps", "peak_mpps", "start_us", "ramp_us",
                    "hold_us", "decay_us"):
            if key not in data:
                raise ScenarioError(f"{path}.{key}", "is required")
        base = _pos_number(data["base_mpps"], f"{path}.base_mpps")
        peak = _pos_number(data["peak_mpps"], f"{path}.peak_mpps")
        if peak < base:
            raise ScenarioError(f"{path}.peak_mpps",
                                "must be >= base_mpps")
        _nonneg_number(data["start_us"], f"{path}.start_us")
        _pos_number(data["ramp_us"], f"{path}.ramp_us")
        _nonneg_number(data["hold_us"], f"{path}.hold_us")
        _pos_number(data["decay_us"], f"{path}.decay_us")
    else:  # windows
        _reject_unknown(data, ("kind", "windows"), path)
        raw = data.get("windows")
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{path}.windows",
                                "must be a non-empty array of windows")
        spans = []
        for j, win in enumerate(raw):
            sub = f"{path}.windows[{j}]"
            win = _expect_mapping(win, sub)
            _reject_unknown(win, ("start_us", "end_us", "rate_mpps"), sub)
            for key in ("start_us", "end_us", "rate_mpps"):
                if key not in win:
                    raise ScenarioError(f"{sub}.{key}", "is required")
            start = _nonneg_number(win["start_us"], f"{sub}.start_us")
            end = _pos_number(win["end_us"], f"{sub}.end_us")
            if end <= start:
                raise ScenarioError(f"{sub}.end_us",
                                    "must exceed start_us")
            _nonneg_number(win["rate_mpps"], f"{sub}.rate_mpps")
            spans.append((start, end, j))
        spans.sort()
        for (s0, e0, j0), (s1, _e1, j1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise ScenarioError(
                    f"{path}.windows[{j1}]",
                    f"overlaps windows[{j0}] "
                    f"([{s0}, {e0}) vs start {s1})")
        if all(win["rate_mpps"] == 0 for win in raw):
            raise ScenarioError(f"{path}.windows",
                                "need at least one positive rate")
    try:
        profile = profile_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(path, str(exc)) from None
    return profile.to_dict()


def _validate_demand(data: Any,
                     tenants: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The optional open-loop ``demand`` block (see docs/WORKLOADS.md).

    Omitted entirely from the normal form when absent, so pre-existing
    closed-loop scenarios keep their canonical bytes and cache keys.
    """
    data = _expect_mapping(data, "demand")
    _reject_unknown(data, ("window_us", "profiles", "tenants"), "demand")
    window_us = _pos_number(data.get("window_us", 50.0), "demand.window_us")
    if "profiles" not in data:
        raise ScenarioError("demand.profiles", "is required")
    raw_profiles = _expect_mapping(data["profiles"], "demand.profiles")
    if not raw_profiles:
        raise ScenarioError("demand.profiles", "must not be empty")
    profiles = {
        _string(name, f"demand.profiles.{name}"):
            _validate_profile(raw_profiles[name], f"demand.profiles.{name}")
        for name in raw_profiles
    }
    if "tenants" not in data:
        raise ScenarioError("demand.tenants", "is required")
    raw_tenants = _expect_mapping(data["tenants"], "demand.tenants")
    if not raw_tenants:
        raise ScenarioError("demand.tenants", "must not be empty")
    tenant_names = [t["name"] for t in tenants]
    allowed = ("profile",) + tuple(n for n, _ in _DEMAND_TENANT_DEFAULTS)
    normal_tenants: Dict[str, Any] = {}
    for name in raw_tenants:
        path = f"demand.tenants.{name}"
        if name not in tenant_names:
            raise ScenarioError(
                path, f"unknown tenant (tenants: {sorted(tenant_names)})")
        entry = _expect_mapping(raw_tenants[name], path)
        _reject_unknown(entry, allowed, path)
        if "profile" not in entry:
            raise ScenarioError(f"{path}.profile", "is required")
        profile = _string(entry["profile"], f"{path}.profile")
        if profile not in profiles:
            raise ScenarioError(
                f"{path}.profile",
                f"unknown profile (profiles: {sorted(profiles)})")
        normal: Dict[str, Any] = {"profile": profile}
        for key, default in _DEMAND_TENANT_DEFAULTS:
            value = entry.get(key, default)
            sub = f"{path}.{key}"
            if key == "arrivals":
                normal[key] = _choice(value, _ARRIVAL_KINDS, sub)
            elif key == "shape":
                shape = _pos_number(value, sub)
                if shape <= 1.0:
                    raise ScenarioError(
                        sub, "must exceed 1 (finite Pareto mean)")
                normal[key] = shape
            elif key == "slo":
                slo = _expect_mapping(value, sub)
                _reject_unknown(slo, _SLO_KEYS, sub)
                normal[key] = {k: _pos_number(slo[k], f"{sub}.{k}")
                               for k in sorted(slo)}
            else:
                normal[key] = _pos_number(value, sub)
        normal_tenants[name] = normal
    return {
        "window_us": window_us,
        "profiles": {name: profiles[name] for name in sorted(profiles)},
        "tenants": {name: normal_tenants[name]
                    for name in sorted(normal_tenants)},
    }


def _validate_measure(data: Any) -> Dict[str, float]:
    data = _expect_mapping(data if data is not None else {}, "measure")
    _reject_unknown(data, tuple(n for n, _ in _MEASURE_DEFAULTS), "measure")
    measure = {}
    for name, default in _MEASURE_DEFAULTS:
        measure[name] = _pos_number(data.get(name, default),
                                    f"measure.{name}")
    return measure


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
_TOP_KEYS = ("version", "name", "seed", "topology", "hosts", "tenants",
             "fault_plan", "measure", "demand")


def validate(data: Any) -> Dict[str, Any]:
    """Validate ``data`` and return its fully-defaulted normal form.

    Raises :class:`ScenarioError` with a path-addressed message on the
    first problem found.
    """
    data = _expect_mapping(data, "")
    _reject_unknown(data, _TOP_KEYS, "")
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            "version", f"must be {SCHEMA_VERSION} (got {version!r})")
    name = _string(data.get("name", ""), "name")
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("seed", "must be an integer")
    topology = _validate_topology(data.get("topology"))
    topo = build_topology({"topology": topology})
    servers = [spec.name for spec in topo.server_hosts]
    if "tenants" not in data:
        raise ScenarioError("tenants", "is required")
    tenants = _validate_tenants(data["tenants"], topo)
    normal = {
        "version": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "topology": topology,
        "hosts": _validate_hosts(data.get("hosts"), servers),
        "tenants": tenants,
        "fault_plan": _validate_fault_plan(data.get("fault_plan"), servers),
        "measure": _validate_measure(data.get("measure")),
    }
    # Optional open-loop demand: present in the normal form ONLY when the
    # input declares it (closed-loop canonical bytes must not move).
    if "demand" in data and data["demand"] is not None:
        normal["demand"] = _validate_demand(data["demand"], tenants)
    return normal


def normalize(data: Any) -> Dict[str, Any]:
    """Alias of :func:`validate` (validation *is* normalisation)."""
    return validate(data)


def canonical(data: Any) -> str:
    """Deterministic compact JSON of the normal form — the runner's
    ``scenario=`` identity tag and the round-trip fixed point."""
    return json.dumps(validate(data), sort_keys=True,
                      separators=(",", ":"))


def build_topology(data: Mapping[str, Any]) -> Topology:
    """Build the :class:`Topology` a (partially) validated scenario
    names. Accepts either a full scenario or ``{"topology": {...}}``."""
    section = data["topology"]
    kind = section["kind"]
    params = dict(section.get("params", {}))
    links = dict(_LINK_DEFAULTS)
    links.update(section.get("links", {}))
    common = {
        "rate": gbps(links["rate_gbps"]),
        "delay": links["delay_us"] * US,
        "ack_delay": (None if links["ack_delay_us"] is None
                      else links["ack_delay_us"] * US),
        "buffer": links["buffer"],
        "ecn_threshold": links["ecn_threshold"],
    }
    builder = {"two_host": two_host, "star": star,
               "leaf_spine": leaf_spine, "fat_tree": fat_tree}[kind]
    return builder(**params, **common)


def fault_plan_of(normal: Mapping[str, Any]) -> FaultPlan:
    """The validated scenario's fault plan (possibly empty)."""
    return FaultPlan.from_dicts(normal.get("fault_plan", ()))
