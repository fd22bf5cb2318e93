"""Unit tests for the chaos experiment module: point construction and
collect() verdicts on synthetic results (the expensive end-to-end points
run in tests/faults/test_recovery.py)."""

from repro.experiments import chaos
from repro.faults import FaultPlan


def test_points_carry_their_fault_plan():
    pts = chaos.points(quick=True)
    assert len(pts) == len(chaos.VARIANTS) * len(chaos.MAGS_QUICK)
    for point in pts:
        plan = FaultPlan.from_dicts(point.params["faults"])
        assert plan  # never a healthy point
        assert point.faults == plan.canonical()
        spec = plan.specs[0]
        assert (spec.site, spec.kind) == ("hw.nic", "descriptor_drop")
        assert spec.start == chaos.WARMUP + chaos.PRE
        assert spec.duration == chaos.FAULT
        assert spec.magnitude == point.params["magnitude"]
    # Default seed applies when no root seed is given.
    assert all(p.seed == chaos.DEFAULT_SEED for p in pts)
    # Distinct magnitudes are distinct points even for one variant.
    assert len({p.content_key for p in pts}) == len(pts)


def test_points_full_sweep_is_superset():
    assert len(chaos.points(quick=False)) == (
        len(chaos.VARIANTS) * len(chaos.MAGS_FULL))


def _synthetic(ceio_final=40.0, ablation_final=0.0, reclaimed=90.0):
    results = {}
    for variant in chaos.VARIANTS:
        for mag in chaos.MAGS_QUICK:
            final = {"ceio": ceio_final,
                     "ceio-norecovery": ablation_final}.get(variant, 10.0)
            results[f"chaos/{variant}.m{mag:g}"] = {
                "pre": 40.0, "during": 10.0,
                "post": [5.0, 20.0, final, final, final, final],
                "dropped_writes": 90.0,
                "credit_reclaimed": reclaimed if variant == "ceio" else 0.0,
                "swring_holes": reclaimed if variant == "ceio" else 0.0,
                "spilled": 0.0,
            }
    # shring wedges in the synthetic world too (matches the simulator).
    for mag in chaos.MAGS_QUICK:
        results[f"chaos/shring.m{mag:g}"]["post"] = [0.0] * 6
    return results


def test_collect_passes_on_recovery_and_deadlock():
    result = chaos.collect(_synthetic(), quick=True)
    assert result.all_passed
    assert len(result.rows) == len(chaos.VARIANTS) * len(chaos.MAGS_QUICK)
    assert result.exp_id == "chaos"


def test_collect_fails_when_ablation_survives():
    result = chaos.collect(_synthetic(ablation_final=35.0), quick=True)
    failed = [c.name for c in result.checks if not c.passed]
    assert any("ablation deadlocks" in name for name in failed)


def test_collect_fails_when_ceio_does_not_recover():
    result = chaos.collect(_synthetic(ceio_final=1.0), quick=True)
    failed = [c.name for c in result.checks if not c.passed]
    assert any("recovers after" in name for name in failed)
