"""Tests for generators, measurement windows, and scenario builders."""

import random

import pytest

from repro.sim.units import US
from repro.workloads import (
    ChurnConfig,
    FixedSize,
    LognormalSize,
    LongTailSize,
    Scenario,
    ScenarioConfig,
    UdChurnScenario,
    UniformSize,
    add_two_burst_flows,
    pareto_burst_lengths,
    poisson_arrivals,
    replace_two_with_bypass,
    scaled_host_config,
    shring_entries_for,
)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_fixed_size():
    g = FixedSize(512)
    assert g.sample(random.Random(0)) == 512
    assert g.mean() == 512
    with pytest.raises(ValueError):
        FixedSize(0)


def test_uniform_size_bounds():
    g = UniformSize(100, 200)
    rng = random.Random(1)
    samples = [g.sample(rng) for _ in range(200)]
    assert all(100 <= s <= 200 for s in samples)
    assert g.mean() == 150
    with pytest.raises(ValueError):
        UniformSize(10, 5)


def test_lognormal_clamped():
    g = LognormalSize(median=500, lo=64, hi=9000)
    rng = random.Random(2)
    samples = [g.sample(rng) for _ in range(500)]
    assert all(64 <= s <= 9000 for s in samples)
    assert g.mean() > 500  # lognormal mean exceeds the median


def test_longtail_mix():
    g = LongTailSize(small=100, large=10_000, p_large=0.2)
    rng = random.Random(3)
    samples = [g.sample(rng) for _ in range(2000)]
    big = sum(1 for s in samples if s == 10_000)
    assert 0.12 < big / len(samples) < 0.28
    assert g.mean() == pytest.approx(0.2 * 10_000 + 0.8 * 100)


def test_poisson_arrivals_rate():
    rng = random.Random(4)
    arrivals = poisson_arrivals(rng, rate_per_ns=0.01, horizon=100_000)
    assert len(arrivals) == pytest.approx(1000, rel=0.2)
    assert arrivals == sorted(arrivals)
    with pytest.raises(ValueError):
        poisson_arrivals(rng, 0, 100)


def test_pareto_burst_lengths_mean():
    rng = random.Random(5)
    lengths = pareto_burst_lengths(rng, count=3000, mean_packets=32)
    assert all(l >= 1 for l in lengths)
    assert sum(lengths) / len(lengths) == pytest.approx(32, rel=0.5)
    with pytest.raises(ValueError):
        pareto_burst_lengths(rng, 10, shape=1.0)


# ---------------------------------------------------------------------------
# Scaled config rules
# ---------------------------------------------------------------------------

def test_scaled_host_preserves_capacity_relationships():
    full = scaled_host_config(1)
    quarter = scaled_host_config(4)
    assert quarter.cache.size == full.cache.size // 4
    assert quarter.total_credits == full.total_credits // 4
    # ShRing's ring always stays below LLC-capacity-in-buffers.
    for cfg in (full, quarter):
        entries = shring_entries_for(cfg)
        assert entries * cfg.io_buf_size < cfg.cache.size
    assert shring_entries_for(full) == 4096  # the paper's setting


def test_scaled_host_validates_scale():
    with pytest.raises(ValueError):
        scaled_host_config(0)


# ---------------------------------------------------------------------------
# Scenario lifecycle
# ---------------------------------------------------------------------------

def _tiny(arch="ceio", **kw):
    defaults = dict(arch=arch, scale=16, n_involved=2, outstanding=8,
                    warmup=50 * US, duration=80 * US, seed=1)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_scenario_builds_and_measures():
    m = Scenario(_tiny()).build().run_measure()
    assert m.involved_mpps > 0
    assert m.duration == pytest.approx(80 * US)
    assert len(m.flows) == 2
    assert m.flow("kv0") is not None
    assert m.flow("nope") is None


def test_scenario_measurement_excludes_warmup():
    scenario = Scenario(_tiny()).build()
    m = scenario.run_measure()
    rx = scenario.arch.flows[scenario.involved[0][0].flow_id]
    # The measured count is below the all-time count (warm-up excluded).
    assert m.flows[0].mpps * m.duration / 1e3 < rx.processed.value + 1


def test_scenario_mixed_flows():
    m = Scenario(_tiny(n_involved=1, n_bypass=1,
                       chunk_packets=4)).build().run_measure()
    assert m.involved_mpps > 0
    assert m.bypass_gbps > 0


def test_scenario_phase_actions():
    scenario = Scenario(_tiny(n_involved=4)).build()
    results = scenario.run_phases([replace_two_with_bypass],
                                  phase_warmup=40 * US,
                                  phase_duration=60 * US)
    assert len(results) == 2
    assert len(scenario.involved) == 2
    assert len(scenario.bypass) == 2


def test_scenario_burst_action_allocates_cores():
    scenario = Scenario(_tiny(n_involved=2)).build()
    scenario.run_phases([add_two_burst_flows], phase_warmup=30 * US,
                        phase_duration=40 * US)
    assert len(scenario.involved) == 4


def test_scenario_remove_involved_frees_core():
    scenario = Scenario(_tiny(n_involved=2)).build()
    free_before = len(scenario.endpoint.host.cpu._free)
    scenario.remove_involved_flow()
    assert len(scenario.endpoint.host.cpu._free) == free_before + 1


def test_scenario_arch_extras_exposed():
    m = Scenario(_tiny("ceio")).build().run_measure()
    assert "fast_fraction" in m.extras
    m2 = Scenario(_tiny("shring")).build().run_measure()
    assert "ring_full_drops" in m2.extras


def test_churn_scenario_small():
    cfg = ChurnConfig(total_flows=8, active_flows=4, time_slot=40 * US,
                      warmup=80 * US, duration=80 * US, scale=16,
                      worker_cores=2, outstanding=8)
    result = UdChurnScenario(cfg).build().run()
    assert result.aggregate_mpps > 0
    assert 0.0 <= result.fast_fraction <= 1.0
