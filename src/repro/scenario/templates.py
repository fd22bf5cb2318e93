"""Named scenario templates (see ``docs/SCENARIOS.md`` for the catalog).

Each template function returns a *fresh* scenario dict (callers may
mutate their copy freely); :func:`template` resolves by name and
:data:`TEMPLATE_NAMES` lists what ships. All templates validate against
:mod:`repro.scenario.schema` — CI runs ``python -m repro.scenario
validate`` over every one of them.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

__all__ = ["TEMPLATE_NAMES", "template", "describe", "incast_template"]


def _paper_baseline() -> Dict[str, Any]:
    """The paper's two-server testbed: 8 closed-loop KV flows into one
    CEIO receiver through a single ToR — the spec every single-host
    paper experiment varies (:func:`repro.workloads.two_host_spec`)."""
    return {
        "version": 1,
        "name": "paper-baseline",
        "seed": 0,
        "topology": {"kind": "two_host"},
        "hosts": {"*": {"arch": "ceio"}},
        "tenants": [
            {"name": "kv", "workload": "kvstore", "flows": 8,
             "payload": 144, "outstanding": 96},
        ],
        "measure": {"warmup_us": 400.0, "duration_us": 600.0},
    }


def _incast(fan_in: int) -> Dict[str, Any]:
    # The receiver dedicates one eRPC core per incoming flow, so wide
    # fan-ins widen the core pool past the testbed's 16 (the cache, not
    # the CPU, must be the bottleneck under study).
    return {
        "version": 1,
        "name": f"incast-{fan_in}",
        "seed": 0,
        "topology": {"kind": "star",
                     "params": {"n_clients": fan_in, "n_servers": 1}},
        "hosts": {"*": {"arch": "ceio", "cores": max(16, fan_in + 2)}},
        "tenants": [
            {"name": "kv", "workload": "kvstore", "host": "s0",
             "flows": fan_in, "payload": 144, "outstanding": 24},
        ],
        "measure": {"warmup_us": 400.0, "duration_us": 600.0},
    }


def _incast_32() -> Dict[str, Any]:
    """32-way incast: one KV flow per client host fanning into a single
    receiver — the RDCA-motivated fan-in stress the two-server testbed
    cannot express."""
    return _incast(32)


def _multi_tenant_ddio() -> Dict[str, Any]:
    """Two receiver hosts behind one ToR, different architectures, mixed
    latency-sensitive (KV) and bandwidth-hungry (LineFS) tenants — the
    5GC2ache-style cross-tenant DDIO contention study."""
    return {
        "version": 1,
        "name": "multi-tenant-ddio",
        "seed": 0,
        "topology": {"kind": "star",
                     "params": {"n_clients": 8, "n_servers": 2}},
        "hosts": {
            "*": {"arch": "ceio"},
            "s1": {"arch": "shring"},
        },
        "tenants": [
            {"name": "kv0", "workload": "kvstore", "host": "s0",
             "flows": 4, "payload": 144, "outstanding": 48},
            {"name": "dfs0", "workload": "linefs", "host": "s0",
             "flows": 2, "payload": 1024, "chunk_packets": 32,
             "outstanding": 12},
            {"name": "kv1", "workload": "kvstore", "host": "s1",
             "flows": 4, "payload": 144, "outstanding": 48},
            {"name": "dfs1", "workload": "linefs", "host": "s1",
             "flows": 2, "payload": 1024, "chunk_packets": 32,
             "outstanding": 12},
        ],
        "measure": {"warmup_us": 400.0, "duration_us": 600.0},
    }


def _all_to_all_storage() -> Dict[str, Any]:
    """A 2x2 leaf-spine with one storage server per leaf: every client
    streams LineFS chunks to every server, crossing the spine fabric —
    the all-to-all pattern that exercises multi-hop routing, ECMP, and
    the interior switch-port conservation accounts."""
    return {
        "version": 1,
        "name": "all-to-all-storage",
        "seed": 0,
        "topology": {"kind": "leaf_spine",
                     "params": {"leaves": 2, "spines": 2,
                                "hosts_per_leaf": 4,
                                "servers_per_leaf": 1}},
        "hosts": {"*": {"arch": "ceio"}},
        "tenants": [
            {"name": "dfs-l0", "workload": "linefs", "host": "l0s0",
             "flows": 6, "payload": 1024, "chunk_packets": 32,
             "outstanding": 12},
            {"name": "dfs-l1", "workload": "linefs", "host": "l1s0",
             "flows": 6, "payload": 1024, "chunk_packets": 32,
             "outstanding": 12},
            {"name": "kv-l0", "workload": "kvstore", "host": "l0s0",
             "flows": 2, "payload": 144, "outstanding": 48},
        ],
        "measure": {"warmup_us": 400.0, "duration_us": 600.0},
    }


def _flash_crowd() -> Dict[str, Any]:
    """Open-loop flash crowd into a guarded CEIO receiver: demand ramps
    32 -> 128 Mpps against an ~81 Mpps service ceiling while admission
    control sheds the excess, holding the KV tenant's p99.9 flat (the
    ``capacity`` experiment runs the no-guardrail ablation of this same
    scenario to show the diverging tail)."""
    return {
        "version": 1,
        "name": "flash-crowd",
        "seed": 7,
        "topology": {"kind": "star",
                     "params": {"n_clients": 8, "n_servers": 1}},
        "hosts": {"*": {"arch": "ceio", "cores": 16,
                        "ceio": {"admission_control": True,
                                 "admission_ring_limit": 64}}},
        "tenants": [
            {"name": "kv", "workload": "kvstore", "host": "s0",
             "flows": 8, "payload": 144},
            {"name": "bg", "workload": "kvstore", "host": "s0",
             "flows": 2, "payload": 144},
        ],
        "demand": {
            "window_us": 25.0,
            "profiles": {
                "crowd": {"kind": "flash_crowd", "base_mpps": 32.0,
                          "peak_mpps": 128.0, "start_us": 200.0,
                          "ramp_us": 50.0, "hold_us": 150.0,
                          "decay_us": 50.0},
                "trickle": {"kind": "steady", "rate_mpps": 2.0},
            },
            "tenants": {
                "kv": {"profile": "crowd", "slo": {"p999_us": 50.0}},
                "bg": {"profile": "trickle", "arrivals": "sessions",
                       "mean_messages": 20.0, "shape": 1.5,
                       "intra_gap_us": 2.0},
            },
        },
        "measure": {"warmup_us": 150.0, "duration_us": 300.0},
    }


#: (name, builder) in catalog order.
_BUILDERS: Tuple[Tuple[str, Any], ...] = (
    ("paper-baseline", _paper_baseline),
    ("incast-32", _incast_32),
    ("multi-tenant-ddio", _multi_tenant_ddio),
    ("all-to-all-storage", _all_to_all_storage),
    ("flash-crowd", _flash_crowd),
)

TEMPLATE_NAMES: Tuple[str, ...] = tuple(name for name, _ in _BUILDERS)


def template(name: str) -> Dict[str, Any]:
    """A fresh copy of the named template scenario."""
    for candidate, builder in _BUILDERS:
        if candidate == name:
            return builder()
    raise KeyError(f"unknown scenario template {name!r}; "
                   f"choose from {list(TEMPLATE_NAMES)}")


def describe(name: str) -> str:
    """The template's one-line description (its builder's docstring)."""
    for candidate, builder in _BUILDERS:
        if candidate == name:
            return (builder.__doc__ or "").strip().split("\n")[0]
    raise KeyError(f"unknown scenario template {name!r}")


def incast_template(fan_in: int) -> Dict[str, Any]:
    """The incast family parameterised by fan-in degree (the
    ``experiments/incast.py`` sweep axis); ``incast_template(32)`` is
    exactly the shipped ``incast-32`` template."""
    return _incast(fan_in)
