"""Figures 4 and 10: dynamic flow distribution and network burst.

Figure 4 (motivation, §2.3) runs HostCC and ShRing only, comparing each
phase's CPU-involved throughput against the *expected* performance
(number of CPU-involved flows x the single-core throughput of ShRing with
sufficient LLC). Figure 10 repeats both scenarios with CEIO included.

The two scenarios (time scaled from the paper's 10 s phases to
sub-millisecond phases; the control loops run at µs granularity so the
transients are fully exercised):

- *dynamic flow distribution*: start with 8 CPU-involved eRPC flows; each
  phase replaces two of them with CPU-bypass LineFS flows;
- *network burst*: start with 8 CPU-involved flows; each phase adds two
  burst CPU-involved flows on two extra cores.

Sweep decomposition: one point per architecture *trajectory* (the phases
of one arch are a causal sequence and cannot be split) plus one shared
"expected performance" calibration point. Because points are identified
structurally, Fig. 4a's HostCC/ShRing trajectories are literally the same
points as Fig. 10a's — the runner executes them once for both figures.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..runner.sweep import Point, make_point
from ..workloads import TopoScenario, compile_scenario, two_host_spec
from .report import ExperimentResult

__all__ = ["points", "scenario_spec", "run_point", "collect"]

DEFAULT_SEED = 11
EXPECTED_SEED = 3
_FN = "repro.experiments.dynamic:run_point"

_ARCHS = {
    "fig04a": ["hostcc", "shring"],
    "fig04b": ["hostcc", "shring"],
    "fig10a": ["baseline", "hostcc", "shring", "ceio"],
    "fig10b": ["baseline", "hostcc", "shring", "ceio"],
}


def scenario_spec(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """``expected``: single-core ShRing on the unscaled 12 MB testbed,
    whose LLC is sufficient for one flow. Otherwise the trajectory's
    starting point, 8 KV flows, plus an unwired LineFS tenant the
    *dynamic* phases draw on."""
    if params["kind"] == "expected":
        return two_host_spec(
            [{"name": "kv", "workload": "kvstore", "flows": 1,
              "payload": params["payload"]}],
            seed=seed, arch="shring", scale=1,
            warmup_us=200.0, duration_us=300.0)
    quick = params["quick"]
    tenants = [
        {"name": "kv", "workload": "kvstore", "flows": 8},
        {"name": "dfs", "workload": "linefs", "flows": 0, "payload": 1024,
         "chunk_packets": 32, "outstanding": 8},
    ]
    return two_host_spec(tenants, seed=seed, arch=params["arch"],
                         warmup_us=250.0 if quick else 500.0,
                         duration_us=300.0 if quick else 600.0)


def _phase_action(scenario: TopoScenario, scenario_kind: str) -> None:
    """*dynamic* (Figures 4a/10a): two CPU-involved flows go quiet and
    two CPU-bypass (LineFS) flows arrive. *burst* (4b/10b): two more
    CPU-involved flows arrive on two extra cores."""
    if scenario_kind == "dynamic":
        for _ in range(2):
            scenario.stop_involved_flow("host")
        n = len(scenario.bypass["host"])
        for i in range(2):
            scenario.add_flow("dfs", f"dfs{n + i}")
    else:
        n = len(scenario.involved["host"])
        for i in range(2):
            scenario.add_flow("kv", f"burst{n + i}")


def _involved_counts(scenario_kind: str, phases: int) -> List[int]:
    if scenario_kind == "dynamic":
        return [8 - 2 * i for i in range(phases + 1)]
    return [8 + 2 * i for i in range(phases + 1)]


# ----------------------------------------------------------------------
# Sweep interface
# ----------------------------------------------------------------------
def points(exp_id: str, quick: bool = True,
           seed: Optional[int] = None) -> List[Point]:
    scenario_kind = "dynamic" if exp_id.endswith("a") else "burst"
    phases = 2 if quick else 3
    pts = [make_point(exp_id, _FN,
                      {"kind": "expected", "payload": 144},
                      seed, EXPECTED_SEED, label="expected.144")]
    for arch in _ARCHS[exp_id]:
        params = {"kind": scenario_kind, "arch": arch, "phases": phases,
                  "quick": quick}
        pts.append(make_point(exp_id, _FN, params, seed, DEFAULT_SEED,
                              label=f"{scenario_kind}.{arch}.p{phases}"))
    return pts


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """The expected reference's rate, or one trajectory: phase 0 as
    built, then each phase action followed by a new warm-up + window."""
    scenario = compile_scenario(scenario_spec(params, seed))
    results = [scenario.run_measure()["host"]]
    if params["kind"] == "expected":
        return {"per_core": results[0].involved_mpps}
    for _ in range(params["phases"]):
        _phase_action(scenario, params["kind"])
        results.append(scenario.run_measure()["host"])
    return {"mpps": [m.involved_mpps for m in results],
            "miss": [m.llc_miss_rate for m in results]}


def collect(exp_id: str, results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    titles = {
        "fig04a": "Motivation: degradation under dynamic flow distribution",
        "fig04b": "Motivation: degradation under network burst",
        "fig10a": "End-to-end: dynamic flow distribution",
        "fig10b": "End-to-end: network burst",
    }
    claims = {
        "fig04a": ("HostCC/ShRing fall up to 1.9x/1.6x below expected "
                   "performance when the flow mix changes"),
        "fig04b": "degradation is even larger under bursts",
        "fig10a": "CEIO achieves up to 2.0x speedup over HostCC/ShRing",
        "fig10b": "CEIO achieves up to 2.9x speedup under bursts",
    }
    result = ExperimentResult(exp_id=exp_id, title=titles[exp_id],
                              paper_claim=claims[exp_id])
    archs = _ARCHS[exp_id]
    scenario_kind = "dynamic" if exp_id.endswith("a") else "burst"
    phases = 2 if quick else 3
    per_core = results[f"{exp_id}/expected.144"]["per_core"]
    counts = _involved_counts(scenario_kind, phases)
    mpps = {}
    miss = {}
    for arch in archs:
        value = results[f"{exp_id}/{scenario_kind}.{arch}.p{phases}"]
        mpps[arch] = value["mpps"]
        miss[arch] = value["miss"]

    result.headers = (["phase", "n_involved", "expected_mpps"]
                      + [f"{a}_mpps" for a in archs]
                      + [f"{a}_miss%" for a in archs])
    for phase in range(phases + 1):
        expected = counts[phase] * per_core
        result.rows.append(
            [phase, counts[phase], expected]
            + [mpps[a][phase] for a in archs]
            + [miss[a][phase] * 100 for a in archs])

    last = phases  # the most perturbed phase
    expected_last = counts[last] * per_core
    for arch in archs:
        if arch == "ceio":
            continue
        result.check(
            f"{arch} falls below expected in perturbed phases",
            mpps[arch][last] < expected_last,
            f"{mpps[arch][last]:.1f} vs expected {expected_last:.1f} Mpps")
    if "ceio" in archs:
        rivals = [a for a in archs if a not in ("ceio",)]
        best_rival = max(mpps[a][last] for a in rivals)
        result.check_ratio(
            "ceio beats the best prior work in the most perturbed phase",
            mpps["ceio"][last], best_rival, 1.0)
        result.check(
            "ceio stays within 35% of expected",
            mpps["ceio"][last] > 0.65 * expected_last,
            f"{mpps['ceio'][last]:.1f} vs expected {expected_last:.1f}")
    return result
