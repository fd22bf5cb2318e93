"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure — these benches justify individual CEIO mechanisms:

- **lazy vs eager credit release** (§4.1): eager release replenishes
  bypass flows as fast as involved ones, eroding the fast-path priority
  of CPU-involved traffic in mixed workloads;
- **phase exclusivity** (§4.2): without it the SW ring observes reordered
  packets;
- **cache model fidelity**: the fast fully-associative LLC model and the
  detailed set-associative model agree on the headline numbers.

Sweep decomposition: one point per ablated configuration. The
"priority-scheme ceio-lazy" row reuses the lazy credit-release point —
same configuration, same seed, so (by determinism) the same simulation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..runner.sweep import Point, make_point, run_points_serial
from ..workloads import compile_scenario, two_host_spec
from .report import ExperimentResult

__all__ = ["run", "points", "scenario_spec", "run_point", "collect"]

MIXED_SEED = 29
EXCLUSIVITY_SEED = 31
_FN = "repro.experiments.ablations:run_point"


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    def mixed(lazy: bool, exclusive: bool, default_seed: int,
              label: str) -> Point:
        params = {"kind": "mixed", "lazy_release": lazy,
                  "phase_exclusivity": exclusive, "quick": quick}
        return make_point("ablations", _FN, params, seed, default_seed,
                          label=label)

    pts = [
        mixed(True, True, MIXED_SEED, "mixed.lazy"),
        mixed(False, True, MIXED_SEED, "mixed.eager"),
        mixed(True, True, EXCLUSIVITY_SEED, "mixed.exclusive"),
        mixed(True, False, EXCLUSIVITY_SEED, "mixed.interleaved"),
        make_point("ablations", _FN, {"kind": "mpq", "quick": quick},
                   seed, MIXED_SEED, label="mpq"),
        make_point("ablations", _FN,
                   {"kind": "static", "set_associative": False,
                    "quick": quick},
                   seed, MIXED_SEED, label="static.fully-assoc"),
        make_point("ablations", _FN,
                   {"kind": "static", "set_associative": True,
                    "quick": quick},
                   seed, MIXED_SEED, label="static.set-assoc"),
    ]
    return pts


def scenario_spec(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    quick = params["quick"]
    if params["kind"] == "static":
        # Full-buffer payloads: with 2 KB-aligned buffers nearly filled,
        # both cache models see the same occupancy. (At small payloads
        # they legitimately diverge — the set-associative model captures
        # the alignment waste of 2 KB-strided mbufs, which the
        # byte-accounted fully-associative model cannot; see the result
        # note.)
        return two_host_spec(
            [{"name": "kv", "workload": "kvstore", "flows": 8,
              "payload": 1900}],
            seed=seed, arch="ceio",
            set_associative_cache=params["set_associative"],
            warmup_us=300.0 if quick else 600.0,
            duration_us=400.0 if quick else 800.0)
    if params["kind"] == "mixed":
        host: Dict[str, Any] = {"arch": "ceio", "ceio": {
            "lazy_release": params["lazy_release"],
            "phase_exclusivity": params["phase_exclusivity"]}}
    else:
        host = {"arch": "mpq"}
    tenants = [
        {"name": "kv", "workload": "kvstore", "flows": 4, "payload": 144},
        {"name": "dfs", "workload": "linefs", "flows": 4, "payload": 1024,
         "chunk_packets": 32, "outstanding": 8},
    ]
    return two_host_spec(tenants, seed=seed,
                         warmup_us=400.0 if quick else 800.0,
                         duration_us=500.0 if quick else 1000.0, **host)


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    scenario = compile_scenario(scenario_spec(params, seed))
    m = scenario.run_measure()["host"]
    arch = scenario.fabric.endpoints["host"].io_arch
    if params["kind"] == "mixed":
        ooo = sum(st.swring.out_of_order for st in arch.states.values())
        return {"mpps": m.involved_mpps,
                "fast_fraction": m.extras.get("fast_fraction", 0.0),
                "ooo": ooo}
    if params["kind"] == "mpq":
        return {"mpps": m.involved_mpps,
                "high_fraction": arch.high_fraction(),
                "demotions": arch.demotions}
    return {"mpps": m.involved_mpps}


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ablations",
        title="Design-choice ablations (lazy release, phase exclusivity, "
              "cache model)",
        paper_claim=("lazy release is what keeps CPU-involved flows on the "
                     "fast path (§4.1); phase exclusivity is what keeps the "
                     "SW ring ordered (§4.2)"),
    )
    result.headers = ["ablation", "variant", "involved_mpps",
                      "fast_fraction", "out_of_order"]

    # 1. Lazy vs eager credit release in a mixed workload.
    lazy = results["ablations/mixed.lazy"]
    eager = results["ablations/mixed.eager"]
    for name, m in (("lazy", lazy), ("eager", eager)):
        result.rows.append(["credit-release", name, m["mpps"],
                            m["fast_fraction"], 0])
    result.check(
        "lazy release sustains involved throughput at least as well",
        lazy["mpps"] >= 0.95 * eager["mpps"],
        f"lazy {lazy['mpps']:.1f} vs eager {eager['mpps']:.1f} Mpps")
    result.notes.append(
        f"fast fraction lazy={lazy['fast_fraction']:.2f} "
        f"eager={eager['fast_fraction']:.2f}")

    # 2. Phase exclusivity and SW-ring ordering.
    for name, key in (("exclusive", "ablations/mixed.exclusive"),
                      ("interleaved", "ablations/mixed.interleaved")):
        m = results[key]
        result.rows.append(["phase-exclusivity", name, m["mpps"],
                            m["fast_fraction"], m["ooo"]])
        if name == "exclusive":
            result.check("phase exclusivity: zero out-of-order deliveries",
                         m["ooo"] == 0, f"{m['ooo']} reordered")
        else:
            result.check("without exclusivity reordering is observed",
                         m["ooo"] > 0, f"{m['ooo']} reordered")

    # 3. MPQ (the §4.1 rejected alternative) vs CEIO's lazy-release design.
    # Continuous RPC streams are *not short flows*: PIAS-style priority
    # decay demotes them off the fast path just like bulk transfers.
    mpq = results["ablations/mpq"]
    result.rows.append(["priority-scheme", "mpq", mpq["mpps"],
                        mpq["high_fraction"], 0])
    result.rows.append(["priority-scheme", "ceio-lazy", lazy["mpps"],
                        lazy["fast_fraction"], 0])
    result.check(
        "PIAS-style MPQ demotes continuous RPC flows (demotions observed)",
        mpq["demotions"] > 0,
        f"{mpq['demotions']:.0f} demotions")
    result.check(
        "CEIO's lazy release beats the rejected MPQ design on RPC "
        "throughput",
        lazy["mpps"] >= mpq["mpps"],
        f"ceio {lazy['mpps']:.1f} vs mpq {mpq['mpps']:.1f}")

    # 4. Cache-model fidelity.
    fa = results["ablations/static.fully-assoc"]
    sa = results["ablations/static.set-assoc"]
    result.rows.append(["cache-model", "fully-assoc", fa["mpps"], 0, 0])
    result.rows.append(["cache-model", "set-assoc", sa["mpps"], 0, 0])
    result.check(
        "cache models agree on CEIO throughput (within 20%, full buffers)",
        abs(fa["mpps"] - sa["mpps"]) <= 0.20 * max(fa["mpps"], 1e-9),
        f"{fa['mpps']:.1f} vs {sa['mpps']:.1f}")
    result.notes.append(
        "at small payloads the models diverge by design: the "
        "set-associative model charges whole 2KB-aligned buffer strides "
        "(real DDIO alignment waste), the fully-associative model charges "
        "bytes")
    return result


def run(quick: bool = True, seed: Optional[int] = None) -> ExperimentResult:
    return collect(run_points_serial(points(quick, seed)), quick, seed)
