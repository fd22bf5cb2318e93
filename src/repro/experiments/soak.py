"""Randomized invariant soak: sampled scenarios gated on conservation.

Where the figure/table experiments pin *performance* numbers, the soak
harness pins *correctness*: it samples scenario x architecture x fault
plan combinations from a seeded stream, runs each one with the
cross-layer conservation ledger armed (``repro.audit``), and fails if any
sampled point reports a balance violation — packets, bytes, descriptors,
credits, or cache lines leaking between layers.

Determinism contract: the entire sample — architectures, flow counts,
fault plans, per-point testbed seeds — is a pure function of the root
seed, drawn from one named ``RngRegistry`` stream *in the parent* before
any point runs. Points are therefore identical for any ``--jobs`` value,
each point's fault plan rides in its params (and its canonical JSON in
the cache key), and a soak that passed once passes forever at that seed.

Run it like any experiment, ideally strictly gated::

    python -m repro.experiments soak --strict-audit
    REPRO_SIM_DEBUG=1 python -m repro.experiments soak --strict-audit
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..faults import FaultPlan, FaultSpec
from ..runner.sweep import Point, make_point
from ..sim.rng import RngRegistry
from ..sim.units import US
from ..workloads import compile_scenario, two_host_spec
from .report import ExperimentResult

__all__ = ["points", "scenario_spec", "run_point", "collect"]

DEFAULT_SEED = 407
_FN = "repro.experiments.soak:run_point"

ARCHES = ["ceio", "baseline", "shring", "hostcc", "mpq"]
N_QUICK = 50
N_FULL = 120

#: Open-loop demand points appended after the closed-loop sample, drawn
#: from their own ``soak.demand`` stream so the historical ``soak.sampler``
#: draws (and every cached closed-loop point) are byte-identical.
N_DEMAND_QUICK = 10
N_DEMAND_FULL = 24
_DEMAND_PROFILES = ["steady", "diurnal", "flash_crowd"]
_DEMAND_ARRIVALS = ["poisson", "sessions"]

#: Every point simulates warm-up plus one measured window; faults open
#: inside that span (and may still be open at end-of-run — conservation
#: must hold either way).
WARMUP = 150 * US
DURATION = 250 * US

#: (site, kind) -> magnitude range to sample from. Semantics per kind
#: follow :class:`repro.faults.FaultSpec` (probability, residual
#: bandwidth/DDIO fraction, extra ns, execution-time multiplier; the
#: magnitude is ignored for ``dma_stall`` / ``crash_restart``).
MAGNITUDES: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("net.link", "loss"): (0.01, 0.10),
    ("net.link", "burst_loss"): (0.3, 0.9),
    ("net.link", "corrupt"): (0.005, 0.05),
    ("hw.pcie", "stall"): (0.0, 0.5),
    ("hw.pcie", "latency"): (200.0, 2000.0),
    ("hw.nic", "dma_stall"): (1.0, 1.0),
    ("hw.nic", "descriptor_drop"): (0.25, 1.0),
    ("hw.cache", "ddio_reconfig"): (0.25, 0.75),
    ("hw.cpu", "slowdown"): (1.5, 4.0),
    ("apps", "crash_restart"): (1.0, 1.0),
}
_KINDS = sorted(MAGNITUDES)


def _sample_plan(rng, n_faults: int) -> FaultPlan:
    """Draw ``n_faults`` specs; at most one crash per plan (a second crash
    of an already-dead worker is not a meaningful scenario)."""
    specs: List[FaultSpec] = []
    crashed = False
    for _ in range(n_faults):
        site, kind = _KINDS[rng.randrange(len(_KINDS))]
        if kind == "crash_restart":
            if crashed:
                continue
            crashed = True
        lo, hi = MAGNITUDES[(site, kind)]
        specs.append(FaultSpec(
            site, kind,
            start=float(rng.randrange(50, 300)) * US,
            duration=float(rng.randrange(30, 90)) * US,
            magnitude=round(lo + (hi - lo) * rng.random(), 4)))
    return FaultPlan(specs)


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    rng = RngRegistry(DEFAULT_SEED if seed is None
                      else seed).stream("soak.sampler")
    count = N_QUICK if quick else N_FULL
    pts: List[Point] = []
    for index in range(count):
        arch = ARCHES[rng.randrange(len(ARCHES))]
        plan = _sample_plan(rng, rng.randrange(3))
        params = {
            "arch": arch,
            "n_involved": rng.randrange(2, 5),
            "n_bypass": rng.randrange(0, 3),
            "faults": plan.to_dicts(),
        }
        pt_seed = rng.randrange(1 << 31)
        pts.append(make_point(
            "soak", _FN, params, None, pt_seed,
            label=f"p{index:03d}.{arch}.f{len(plan)}",
            faults=plan.canonical()))
    pts.extend(_demand_points(quick, seed))
    return pts


def _demand_profile(rng, kind: str) -> Dict[str, Any]:
    base = round(2.0 + 14.0 * rng.random(), 2)
    if kind == "steady":
        return {"kind": "steady", "rate_mpps": base}
    if kind == "diurnal":
        return {"kind": "diurnal", "base_mpps": base,
                "amplitude": round(0.2 + 0.6 * rng.random(), 2),
                "period_us": float(rng.randrange(60, 160)),
                "phase_us": float(rng.randrange(0, 50))}
    return {"kind": "flash_crowd", "base_mpps": base,
            "peak_mpps": round(base * (2.0 + 2.0 * rng.random()), 2),
            "start_us": float(rng.randrange(120, 200)),
            "ramp_us": 25.0, "hold_us": 75.0, "decay_us": 25.0}


def _demand_points(quick: bool, seed: Optional[int]) -> List[Point]:
    """Open-loop invariant points: demand-driven scenarios where the
    admission account must reconcile (offered == delivered + shed +
    dropped) even when guardrails actively shed mid-run."""
    rng = RngRegistry(DEFAULT_SEED if seed is None
                      else seed).stream("soak.demand")
    count = N_DEMAND_QUICK if quick else N_DEMAND_FULL
    pts: List[Point] = []
    for index in range(count):
        if index == 0:
            # Every sample exercises the guarded path at least once:
            # admission reconciliation (offered == delivered + shed +
            # dropped) is the invariant this family exists to soak.
            arch, guarded = "ceio", True
        else:
            arch = ARCHES[rng.randrange(len(ARCHES))]
            guarded = arch == "ceio" and rng.random() < 0.5
        kind = _DEMAND_PROFILES[rng.randrange(len(_DEMAND_PROFILES))]
        arrivals = _DEMAND_ARRIVALS[rng.randrange(len(_DEMAND_ARRIVALS))]
        params = {
            "mode": "demand",
            "arch": arch,
            "flows": rng.randrange(2, 5),
            "profile": _demand_profile(rng, kind),
            "arrivals": arrivals,
            "guarded": guarded,
        }
        pt_seed = rng.randrange(1 << 31)
        pts.append(make_point(
            "soak", _FN, params, None, pt_seed,
            label=f"d{index:03d}.{arch}.{kind}"
                  + (".adm" if guarded else "")))
    return pts


def _demand_spec(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    host: Dict[str, Any] = {"arch": params["arch"]}
    if params["guarded"]:
        host["ceio"] = {"admission_control": True,
                        "admission_ring_limit": 64}
    tenant: Dict[str, Any] = {"profile": "p0"}
    if params["arrivals"] == "sessions":
        tenant.update({"arrivals": "sessions", "mean_messages": 16.0,
                       "shape": 1.5, "intra_gap_us": 2.0})
    return {
        "version": 1,
        "name": "soak-demand",
        "seed": seed,
        "topology": {"kind": "star",
                     "params": {"n_clients": 4, "n_servers": 1}},
        "hosts": {"*": host},
        "tenants": [{"name": "kv", "workload": "kvstore", "host": "s0",
                     "flows": params["flows"], "payload": 144}],
        "demand": {
            "window_us": 50.0,
            "profiles": {"p0": dict(params["profile"])},
            "tenants": {"kv": tenant},
        },
        "measure": {"warmup_us": WARMUP / US,
                    "duration_us": DURATION / US},
    }


def scenario_spec(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """A sampled point: closed-loop KV and LineFS flows with their fault
    plan on the testbed, or an open-loop demand point on a star."""
    if params.get("mode") == "demand":
        return _demand_spec(params, seed)
    tenants = [
        {"name": "kv", "workload": "kvstore", "flows": params["n_involved"]},
        {"name": "dfs", "workload": "linefs", "flows": params["n_bypass"],
         "payload": 1024, "chunk_packets": 32, "outstanding": 8},
    ]
    return two_host_spec(tenants, seed=seed, fault_plan=params["faults"],
                         arch=params["arch"], scale=8,
                         warmup_us=WARMUP / US, duration_us=DURATION / US)


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    (measurement,) = compile_scenario(
        scenario_spec(params, seed)).run_measure().values()
    audit = measurement.audit or {}
    return {
        "mpps": measurement.total_mpps,
        "dropped": measurement.dropped,
        "checked": audit.get("checked", 0),
        "violations": [v["message"] for v in audit.get("violations", ())],
    }


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="soak",
        title="Randomized invariant soak (conservation ledgers)",
        paper_claim=("every sampled scenario x architecture x fault-plan "
                     "combination conserves packets, bytes, descriptors, "
                     "credits, and cache residency across all layers"),
    )
    result.headers = ["arch", "points", "faulted", "checks", "violations",
                      "mean_mpps"]
    pts = points(quick, seed)
    per_arch: Dict[str, Dict[str, float]] = {}
    bad: List[str] = []
    for point in pts:
        value = results[point.point_id]
        arch = point.params["arch"]
        row = per_arch.setdefault(arch, {
            "points": 0, "faulted": 0, "checks": 0, "violations": 0,
            "mpps": 0.0})
        row["points"] += 1
        row["faulted"] += 1 if point.params.get("faults") else 0
        row["checks"] += value["checked"]
        row["violations"] += len(value["violations"])
        row["mpps"] += value["mpps"]
        for message in value["violations"]:
            bad.append(f"{point.point_id}: {message}")
    for arch in sorted(per_arch):
        row = per_arch[arch]
        result.rows.append([
            arch, row["points"], row["faulted"], row["checks"],
            row["violations"], row["mpps"] / max(1, row["points"])])

    total_violations = sum(r["violations"] for r in per_arch.values())
    total_checks = sum(r["checks"] for r in per_arch.values())
    faulted = sum(r["faulted"] for r in per_arch.values())
    result.check(
        f"all {len(pts)} sampled points balance",
        total_violations == 0,
        f"{total_checks:.0f} balance checks, "
        f"{total_violations:.0f} violations"
        + (f"; first: {bad[0]}" if bad else ""))
    result.check(
        "sample exercises faulted scenarios",
        faulted > 0,
        f"{faulted:.0f}/{len(pts)} points carry a fault plan")
    result.check(
        "auditing was armed on every point",
        all(results[p.point_id]["checked"] > 0 for p in pts),
        "each point reports a non-empty end-of-run reconciliation")
    demand = [p for p in pts if p.params.get("mode") == "demand"]
    guarded = sum(1 for p in demand if p.params["guarded"])
    result.check(
        "sample exercises open-loop demand scenarios",
        len(demand) > 0 and guarded > 0,
        f"{len(demand)} demand points ({guarded} with admission "
        f"control armed)")
    return result
