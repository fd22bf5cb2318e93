"""Cross-cutting integration tests: determinism, CLI, examples."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads import compile_scenario, two_host_spec


def _small(arch, seed, duration_us):
    return compile_scenario(two_host_spec(
        [{"name": "kv", "workload": "kvstore", "flows": 2,
          "outstanding": 8}],
        seed=seed, arch=arch, scale=16, warmup_us=50.0,
        duration_us=duration_us))


def _run_once(seed):
    m = _small("ceio", seed, 100.0).run_measure()["host"]
    return (m.involved_mpps, m.llc_miss_rate, m.p99_us, m.dropped)


def test_simulation_is_deterministic_given_seed():
    """Two runs with the same seed must agree bit-for-bit on every metric
    — the foundation for debugging and for comparing architectures."""
    assert _run_once(5) == _run_once(5)


def test_different_seeds_differ():
    a, b = _run_once(5), _run_once(6)
    assert a != b


def test_architectures_share_identical_workload():
    """Same seed => clients offer the same message sequence regardless of
    the receive-side architecture (the comparison is apples-to-apples)."""
    sent = {}
    for arch in ("baseline", "ceio"):
        scenario = _small(arch, 9, 50.0)
        scenario.run_measure()
        sent[arch] = {
            rec.flow.name:
                scenario.fabric.senders[rec.flow.flow_id].packets_sent
            for rec in scenario.involved["host"]}
    # Not identical packet counts (feedback differs), but the same flows
    # exist and all sent traffic.
    assert sent["baseline"].keys() == sent["ceio"].keys()
    assert all(v > 0 for v in sent["baseline"].values())


@pytest.mark.slow
def test_cli_runs_cheapest_experiment():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "table3"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "table3" in proc.stdout
    assert "[PASS]" in proc.stdout


def test_quickstart_example_importable_and_structured():
    """Every example must at least import and expose main(), so a removed
    public name cannot leave one broken."""
    examples = sorted(Path(__file__).resolve().parent.parent
                      .joinpath("examples").glob("*.py"))
    assert "quickstart" in {path.stem for path in examples}
    for path in examples:
        spec = importlib.util.spec_from_file_location(
            f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main), path.name
