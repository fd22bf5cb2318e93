"""The six workloads of the end-to-end benchmark.

Each workload is a scenario spec run through a public entry point:
``compile_scenario(spec).run()`` for a single event kernel, or
``repro.shard.run_sharded`` for the sharded workload. The pairs are
chosen so that one workload exercises a layer and another bypasses it
(see ``README.md`` for the full layer-to-workload table):

- ``paper-ceio`` / ``paper-ddio``: identical traffic, CEIO against the
  DDIO baseline, so ``core`` is busy on one and idle on the other;
- ``incast64`` / ``incast64-s2``: identical output bytes, one kernel
  against two shard processes, so ``shard`` and ``runner`` are busy on
  one and idle on the other;
- ``flash-crowd`` is the only open-loop workload (``demand``,
  ``core.admission``, ``workloads.slo``);
- ``storage-a2a`` is the large-packet, multi-hop, CPU-bypass workload.

``digest`` pins the sha256 of ``json.dumps(result, sort_keys=True)`` at
the workload's default seed; the two incast workloads share one digest
(the shard byte-identity contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "incast64_spec", "spec_for"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Where the spec comes from: a ``repro.scenario`` template name, or
    #: ``"incast64"`` for :func:`incast64_spec`.
    source: str
    #: ``hosts.*.arch`` override (None keeps the source's).
    arch: Optional[str]
    #: 1 runs ``compile_scenario(spec).run()``; more runs
    #: ``run_sharded(spec, shards, mode=mode)``.
    shards: int
    mode: Optional[str]
    default_seed: int
    digest: str


def incast64_spec() -> Dict[str, Any]:
    """The 64-host incast of ``benchmarks/test_shard_scaling.py``: a 4x2
    leaf-spine with 16 hosts and one storage server per leaf, and 48 KV
    flows fanning into ``l0s0``, so three quarters of the traffic crosses
    the spines."""
    return {
        "version": 1,
        "name": "incast-64host",
        "seed": 0,
        "topology": {"kind": "leaf_spine",
                     "params": {"leaves": 4, "spines": 2,
                                "hosts_per_leaf": 16,
                                "servers_per_leaf": 1}},
        "hosts": {"*": {"arch": "ceio", "cores": 50}},
        "tenants": [
            {"name": "kv", "workload": "kvstore", "host": "l0s0",
             "flows": 48, "payload": 144, "outstanding": 8},
        ],
        "measure": {"warmup_us": 100.0, "duration_us": 250.0},
    }


_INCAST64_DIGEST = \
    "31d3d8e6d891229891e5bd44df0a8c6299804bfb840ab3eb48d96496638762df"

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper-ceio", "paper-baseline", None, 1, None, 0,
        "13fb0e2f4737cc1de59081c949673d79a47e1b98dccb3e8a7d1916e797253ed2"),
    Workload(
        "paper-ddio", "paper-baseline", "baseline", 1, None, 0,
        "0b161be7f8da2add142384af475796eb9effe5dc8a4166bed4886b9350e0f5ca"),
    Workload(
        "flash-crowd", "flash-crowd", None, 1, None, 7,
        "51ac9ae37261e3f9c53a20f689fccc2f8f7f3cf4d4f998fc122489b89d1d4acd"),
    Workload(
        "storage-a2a", "all-to-all-storage", None, 1, None, 0,
        "ae888818d5654051e54591b46deaa409b9daeda704dc3428aa2156626ef2861d"),
    Workload(
        "incast64", "incast64", None, 1, None, 0, _INCAST64_DIGEST),
    Workload(
        "incast64-s2", "incast64", None, 2, "process", 0, _INCAST64_DIGEST),
)}


def spec_for(name: str, seed: int,
             measure: Optional[Tuple[float, float]] = None
             ) -> Dict[str, Any]:
    """A fresh spec for workload ``name`` at ``seed``; ``measure``
    optionally replaces the ``(warmup_us, duration_us)`` window."""
    from repro.scenario import template

    workload = WORKLOADS[name]
    spec = (incast64_spec() if workload.source == "incast64"
            else template(workload.source))
    spec["seed"] = seed
    if workload.arch is not None:
        spec["hosts"]["*"]["arch"] = workload.arch
    if measure is not None:
        spec["measure"] = {"warmup_us": measure[0],
                           "duration_us": measure[1]}
    return spec
