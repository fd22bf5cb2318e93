"""Figure 12: aggregate throughput with thousands of UD flows under churn.

512 B echo in RDMA UD mode: 16 queue pairs are active at a time and the
active set is reshuffled every time slot. Paper: CEIO sustains throughput
when the slot is >= 1 ms; at 100-500 µs slots throughput/fast-path use
degrades beyond ~1K flows because the round-robin reactivation (a bounded
ARM-rate scan of the steering table) cannot keep up with the churn.

Sweep decomposition: one point per (flow count, slot length).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..runner.sweep import Point, make_point
from ..sim.units import US
from ..workloads import ChurnConfig, UdChurnScenario
from .report import ExperimentResult

__all__ = ["points", "run_point", "collect"]

FLOWS_QUICK = [32, 1024]
FLOWS_FULL = [16, 128, 512, 1024, 2048]
SLOTS_QUICK = [100 * US, 1000 * US]
SLOTS_FULL = [100 * US, 500 * US, 1000 * US]
DEFAULT_SEED = 5
_FN = "repro.experiments.fig12:run_point"


def _axes(quick: bool):
    return ((FLOWS_QUICK if quick else FLOWS_FULL),
            (SLOTS_QUICK if quick else SLOTS_FULL))


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    flows, slots = _axes(quick)
    pts = []
    for n in flows:
        for slot in slots:
            params = {"flows": n, "slot_us": slot / US}
            pts.append(make_point("fig12", _FN, params, seed, DEFAULT_SEED,
                                  label=f"f{n}.s{slot / US:g}us"))
    return pts


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    r = UdChurnScenario(ChurnConfig(total_flows=params["flows"],
                                    time_slot=params["slot_us"] * US,
                                    seed=seed)).build().run()
    return {"mpps": r.aggregate_mpps, "fast_fraction": r.fast_fraction,
            "miss": r.llc_miss_rate}


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig12",
        title="Aggregate throughput vs number of UD flows (512B echo)",
        paper_claim=("stable throughput at slow churn (>=1ms slots); "
                     "beyond ~1K flows with 100-500µs slots the active-flow "
                     "strategy lags and traffic shifts to the slow path"),
    )
    result.headers = ["flows", "slot_us", "mpps", "fast_fraction", "miss_%"]
    flows, slots = _axes(quick)
    data = {}
    for n in flows:
        for slot in slots:
            r = results[f"fig12/f{n}.s{slot / US:g}us"]
            data[(n, slot)] = r
            result.rows.append([n, slot / US, r["mpps"],
                                r["fast_fraction"], r["miss"] * 100])

    few, many = flows[0], flows[-1]
    fast_slot, slow_slot = slots[0], slots[-1]
    result.check(
        "few flows stay (almost) entirely on the fast path",
        data[(few, fast_slot)]["fast_fraction"] > 0.9,
        f"fast fraction {data[(few, fast_slot)]['fast_fraction']:.2f}")
    result.check(
        "fast churn + many flows forces traffic onto the slow path",
        data[(many, fast_slot)]["fast_fraction"] < 0.5,
        f"fast fraction {data[(many, fast_slot)]['fast_fraction']:.2f}")
    result.check(
        "slow churn recovers fast-path utilisation at the same flow count",
        data[(many, slow_slot)]["fast_fraction"]
        > data[(many, fast_slot)]["fast_fraction"] + 0.1,
        f"{data[(many, slow_slot)]['fast_fraction']:.2f} vs "
        f"{data[(many, fast_slot)]['fast_fraction']:.2f}")
    result.check(
        "aggregate throughput never collapses (elastic buffering holds)",
        data[(many, fast_slot)]["mpps"]
        > 0.5 * data[(few, fast_slot)]["mpps"],
    )
    return result
