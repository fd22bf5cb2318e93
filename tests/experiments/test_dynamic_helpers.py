"""Unit tests for the dynamic-experiment helpers, plus one short run of
the expected-performance reference."""

from repro.experiments.dynamic import (EXPECTED_SEED, _involved_counts,
                                       scenario_spec)
from repro.workloads import compile_scenario


def test_involved_counts_dynamic_replacement():
    assert _involved_counts("dynamic", 3) == [8, 6, 4, 2]


def test_involved_counts_burst_additions():
    assert _involved_counts("burst", 3) == [8, 10, 12, 14]


def test_involved_counts_zero_phases():
    assert _involved_counts("dynamic", 0) == [8]
    assert _involved_counts("burst", 0) == [8]


def test_expected_reference_has_sufficient_llc():
    """Figures 4/10 scale the single-core ShRing rate of a testbed whose
    LLC is sufficient: the reference run must not miss at all."""
    spec = scenario_spec({"kind": "expected", "payload": 144},
                         EXPECTED_SEED)
    m = compile_scenario(spec).run_measure()["host"]
    assert m.llc_miss_rate == 0.0
    assert m.involved_mpps > 0
