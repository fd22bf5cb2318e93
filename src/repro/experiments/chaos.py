"""Chaos suite: goodput retention and recovery under injected faults.

The central scenario is *credit loss*: a ``hw.nic descriptor_drop`` fault
makes the NIC's DMA engine silently discard host-bound descriptor writes
for a 200 us window. For CEIO every dropped fast-path write is a leaked
credit (granted, never released) and a permanent ordering hole in the
software ring (issued, never delivered) — exactly the failure mode §5's
recovery machinery exists for. The sweep runs the fault at increasing
magnitude (drop probability) against four variants:

- ``ceio`` — full recovery: credit-loss watchdog, software-ring
  stuck-slot release, spill-to-DRAM;
- ``ceio-norecovery`` — the ablation with all three disabled;
- ``shring`` / ``baseline`` — the paper's comparison points (no credits
  to lose, but dropped writes leak ring descriptors).

Each point measures goodput in a pre-fault window, during the fault, and
in six consecutive post-fault windows, so ``collect`` can report both
*retention* (goodput during the fault) and *recovery* (goodput once the
fault clears). Shape checks assert the tentpole claims: CEIO sustains
non-zero goodput through the fault and recovers to near pre-fault levels,
while the watchdog-disabled ablation deadlocks — consumed credits are
never reclaimed, the ordering barrier can never be met, and the flow
starves permanently.

Like every sweep, the experiment is bit-reproducible for any ``--jobs``
value: the fault plan rides inside each point's params (and its canonical
JSON is part of the point's cache identity), so a worker process
reconstructs the exact same faulted testbed the serial path builds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..faults import FaultPlan, FaultSpec
from ..runner.sweep import Point, make_point
from ..sim.units import US
from ..workloads import compile_scenario, two_host_spec
from .report import ExperimentResult

__all__ = ["points", "scenario_spec", "run_point", "collect"]

DEFAULT_SEED = 23
_FN = "repro.experiments.chaos:run_point"

VARIANTS = ["ceio", "ceio-norecovery", "shring", "baseline"]
MAGS_QUICK = [0.5, 1.0]
MAGS_FULL = [0.25, 0.5, 0.75, 1.0]

#: Timeline (all absolute from t=0): warm up, measure a healthy window,
#: then the fault spans exactly the "during" window, then six post
#: windows observe recovery.
WARMUP = 300 * US
PRE = 200 * US
FAULT = 200 * US
POST = 100 * US
N_POST = 6

#: LLC scale 8 with 4 involved flows gives each flow 96 credits — the
#: same per-flow credit budget as the default 8-flow/scale-4 setups, but
#: a full-magnitude fault exhausts it well inside the fault window, so
#: the credit-loss wedge (and the recovery from it) happens on-sweep.
SCALE = 8
N_INVOLVED = 4
#: Closed-loop window per client, well under the 96-credit budget: healthy
#: flows never exhaust credits, so every degrade during the sweep is
#: fault-caused — the ablation's wedge is deterministic, not a race with
#: ordinary credit churn.
OUTSTANDING = 32
#: ``ceio-norecovery``: watchdog, stuck-slot release and spill all off.
NO_RECOVERY = {"credit_watchdog": False, "swring_stuck_timeout": 0.0,
               "spill_to_dram": False}


def _label(variant: str, magnitude: float) -> str:
    return f"{variant}.m{magnitude:g}"


def _plan(magnitude: float) -> FaultPlan:
    return FaultPlan((FaultSpec("hw.nic", "descriptor_drop",
                                start=WARMUP + PRE, duration=FAULT,
                                magnitude=magnitude),))


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    mags = MAGS_QUICK if quick else MAGS_FULL
    pts = []
    for variant in VARIANTS:
        for mag in mags:
            plan = _plan(mag)
            params = {"variant": variant, "magnitude": mag, "quick": quick,
                      "faults": plan.to_dicts()}
            pts.append(make_point(
                "chaos", _FN, params, seed, DEFAULT_SEED,
                label=_label(variant, mag), faults=plan.canonical()))
    return pts


def scenario_spec(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """The variant's testbed with the point's fault plan armed; its
    measure block is the healthy pre-fault window."""
    variant = params["variant"]
    host: Dict[str, Any] = {
        "arch": "ceio" if variant.startswith("ceio") else variant,
        "scale": SCALE}
    if variant == "ceio-norecovery":
        host["ceio"] = NO_RECOVERY
    tenant = {"name": "kv", "workload": "kvstore", "flows": N_INVOLVED,
              "outstanding": OUTSTANDING}
    return two_host_spec([tenant], seed=seed, fault_plan=params["faults"],
                         warmup_us=WARMUP / US, duration_us=PRE / US,
                         **host)


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    scenario = compile_scenario(scenario_spec(params, seed))
    endpoint = scenario.fabric.endpoints["host"]
    pre = scenario.run_measure()["host"]
    during = scenario.run_measure(0.0, FAULT)["host"]
    posts = [scenario.run_measure(0.0, POST)["host"]
             for _ in range(N_POST)]

    windows = [pre, during] + posts
    out: Dict[str, Any] = {
        "pre": pre.involved_mpps,
        "during": during.involved_mpps,
        "post": [m.involved_mpps for m in posts],
        "dropped_writes": endpoint.host.nic.dma.dropped_writes,
        # Per-flow drops summed over every measured window — includes the
        # silently-lost DMA writes that baseline/shring/hostcc previously
        # failed to account into Measurement.dropped.
        "dropped_total": sum(m.dropped for m in windows),
        "audit_violations": sum(
            len((m.audit or {}).get("violations", ())) for m in windows),
    }
    for attr in ("credit_reclaimed", "swring_holes", "spilled"):
        count = getattr(endpoint.io_arch, attr, None)
        if count is not None:
            out[attr] = count
    return out


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="chaos",
        title="Goodput retention and recovery under injected faults",
        paper_claim=("CEIO's §5 recovery machinery (credit-loss watchdog, "
                     "stuck-slot release, spill-to-DRAM) keeps the data "
                     "path live through a descriptor-drop fault and "
                     "restores goodput afterwards; without it, leaked "
                     "credits and unmeetable ordering barriers deadlock "
                     "the flow"),
    )
    result.headers = ["variant", "mag", "pre_mpps", "during_mpps",
                      "final_mpps", "retention_%", "dropped", "reclaimed"]
    mags = MAGS_QUICK if quick else MAGS_FULL

    def cell(variant: str, mag: float) -> Dict[str, Any]:
        return results[f"chaos/{_label(variant, mag)}"]

    for variant in VARIANTS:
        for mag in mags:
            value = cell(variant, mag)
            final = value["post"][-1]
            retention = (final / value["pre"] * 100.0) if value["pre"] else 0.0
            result.rows.append([
                variant, mag, value["pre"], value["during"], final,
                retention, value["dropped_writes"],
                value.get("credit_reclaimed", 0.0)])

    worst = mags[-1]
    ceio = cell("ceio", worst)
    ablation = cell("ceio-norecovery", worst)
    result.check(
        f"ceio sustains goodput during the m{worst:g} fault",
        ceio["during"] > 0,
        f"{ceio['during']:.2f} Mpps while every fast-path DMA write drops")
    result.check_ratio(
        f"ceio recovers after the m{worst:g} fault (final/pre)",
        ceio["post"][-1], ceio["pre"], 0.5)
    result.check(
        "recovery is driven by the credit watchdog",
        ceio.get("credit_reclaimed", 0.0) > 0,
        f"{ceio.get('credit_reclaimed', 0.0):.0f} leaked credits reclaimed")
    result.check(
        f"watchdog-disabled ablation deadlocks at m{worst:g}",
        ablation["post"][-1] < 0.1 * ablation["pre"],
        f"final {ablation['post'][-1]:.3f} vs pre "
        f"{ablation['pre']:.2f} Mpps with "
        f"{ablation.get('credit_reclaimed', 0.0):.0f} credits reclaimed")
    shring = cell("shring", worst)
    result.check(
        f"shring has no descriptor reclaim and wedges at m{worst:g}",
        shring["post"][-1] < 0.1 * shring["pre"],
        f"{shring['dropped_writes']:.0f} leaked descriptors exhaust the "
        "shared ring")
    for mag in mags:
        value = cell("ceio", mag)
        result.check(
            f"no deadlock: ceio goodput recovers at m{mag:g}",
            value["post"][-1] > 0,
            f"final {value['post'][-1]:.2f} Mpps")
    result.notes.append(
        "baseline rides the fault out on its oversized rings' standing "
        "backlog (the very over-provisioning that thrashes its LLC) but "
        "silently loses every dropped request — see the 'dropped' column")
    return result
