"""Incast: fan-in degree x architecture on the star topology.

Sweeps the ``incast-N`` scenario family (``repro.scenario``): N client
hosts each drive one closed-loop KV flow into a single receiver behind
one ToR, for N in the fan-in axis, across the I/O architectures. This
is the RDCA-motivated stress the two-server testbed cannot express —
receive pressure grows with the *number of concurrent senders*, not
per-flow load, so architectures that cap or recycle receive buffers
(CEIO, ShRing) separate sharply from the DDIO baseline as N grows.

The sweep exposes a crossover the two-server testbed cannot show. At
narrow fan-in each flow's arrival rate exceeds a core's miss-laden
service rate, rings back up, and the baseline's DDIO partition
thrashes (the ~100% miss regime) while CEIO's bounded buffering keeps
serving from the LLC. At wide fan-in the shared ToR egress caps
per-flow demand below even the baseline's hit-served capacity, so every
architecture converges to fabric line rate — with CEIO the receiver
cache is *never* the bottleneck, at any fan-in.

Shape checks:
- CEIO beats the baseline >= 1.3x at the narrowest fan-in (thrash
  regime) and stays >= baseline (within noise) at every fan-in;
- the baseline misses heavily at the narrowest fan-in; CEIO's miss
  rate stays low at every fan-in;
- CEIO's throughput grows with fan-in up to fabric line rate;
- every point's conservation audit is clean (zero violations).

Every point carries its scenario's canonical JSON in ``Point.scenario``,
so cached incast results are keyed by the full declarative spec; results
are bit-identical for any ``--jobs`` value.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..runner.sweep import Point, make_point
from ..scenario import canonical, incast_template
from .report import ExperimentResult

__all__ = ["points", "run_point", "collect"]

ARCHS = ["baseline", "hostcc", "shring", "ceio"]
ARCHS_QUICK = ["baseline", "ceio"]
FAN_INS_QUICK = [8, 32]
FAN_INS_FULL = [4, 8, 16, 32]
DEFAULT_SEED = 7
_FN = "repro.experiments.incast:run_point"


def _scenario(fan_in: int, arch: str, seed: int,
              quick: bool) -> Dict[str, Any]:
    spec = incast_template(fan_in)
    spec["seed"] = seed
    spec["hosts"]["*"]["arch"] = arch
    if quick:
        spec["measure"] = {"warmup_us": 200.0, "duration_us": 300.0}
    return spec


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    archs = ARCHS_QUICK if quick else ARCHS
    fan_ins = FAN_INS_QUICK if quick else FAN_INS_FULL
    pts = []
    for arch in archs:
        for fan_in in fan_ins:
            params = {"arch": arch, "fan_in": fan_in, "quick": quick}
            point = make_point("incast", _FN, params, seed, DEFAULT_SEED,
                               label=f"{arch}.{fan_in}")
            pts.append(Point(
                exp_id=point.exp_id, fn=point.fn, params=point.params,
                seed=point.seed, label=point.label,
                scenario=canonical(_scenario(fan_in, arch, point.seed,
                                             quick))))
    return pts


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    # Imported here so the registry import stays light and the worker is
    # resolvable in any pool process.
    from ..workloads.topo_scenario import compile_scenario
    spec = _scenario(params["fan_in"], params["arch"], seed,
                     params["quick"])
    scenario = compile_scenario(spec)
    measurement = scenario.run_measure()["s0"]
    audit = measurement.audit or {}
    return {
        "mpps": measurement.involved_mpps,
        "miss": measurement.llc_miss_rate,
        "p99_us": measurement.p99_us,
        "audit_ok": bool(audit.get("ok", False)),
        "audit_violations": len(audit.get("violations", [])),
    }


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    archs = ARCHS_QUICK if quick else ARCHS
    fan_ins = FAN_INS_QUICK if quick else FAN_INS_FULL
    result = ExperimentResult(
        exp_id="incast",
        title="Incast fan-in sweep on the star topology (repro.topo)",
        paper_claim=("Receive-side cache pressure grows with fan-in; "
                     "CEIO's bounded buffering holds throughput and a "
                     "low miss rate where the DDIO baseline degrades"),
    )
    result.headers = ["arch", "fan_in", "mpps", "miss_%", "p99_us",
                      "audit_ok"]
    mpps: Dict[str, Dict[int, float]] = {a: {} for a in archs}
    miss: Dict[str, Dict[int, float]] = {a: {} for a in archs}
    audits_ok = True
    for arch in archs:
        for fan_in in fan_ins:
            value = results[f"incast/{arch}.{fan_in}"]
            mpps[arch][fan_in] = value["mpps"]
            miss[arch][fan_in] = value["miss"]
            audits_ok = audits_ok and value["audit_ok"]
            result.rows.append([arch, fan_in, value["mpps"],
                                value["miss"] * 100.0, value["p99_us"],
                                value["audit_ok"]])
    narrow, wide = fan_ins[0], fan_ins[-1]
    result.check("all points pass conservation audit", audits_ok)
    result.check_ratio(
        f"ceio/baseline speedup at fan-in {narrow} (thrash regime)",
        mpps["ceio"][narrow], mpps["baseline"][narrow], 1.3, 10.0)
    result.check(
        f"baseline misses heavily at fan-in {narrow}",
        miss["baseline"][narrow] > 0.5,
        f"baseline miss {miss['baseline'][narrow] * 100:.0f}%")
    for fan_in in fan_ins:
        result.check(
            f"ceio >= baseline at fan-in {fan_in} (within noise)",
            mpps["ceio"][fan_in] >= 0.97 * mpps["baseline"][fan_in],
            f"ceio {mpps['ceio'][fan_in]:.2f} vs baseline "
            f"{mpps['baseline'][fan_in]:.2f} Mpps")
        result.check(
            f"ceio miss rate stays low at fan-in {fan_in}",
            miss["ceio"][fan_in] < 0.1,
            f"{miss['ceio'][fan_in] * 100:.2f}%")
    result.check(
        f"ceio throughput grows with fan-in ({narrow} -> {wide})",
        mpps["ceio"][wide] > mpps["ceio"][narrow],
        f"{mpps['ceio'][narrow]:.1f} -> {mpps['ceio'][wide]:.1f} Mpps")
    return result
