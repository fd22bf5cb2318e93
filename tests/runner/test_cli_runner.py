"""Orchestration layer: dedupe, cache integration, sweep determinism."""

import pytest

from repro.experiments import fig09
from repro.runner import Point, Progress, RunnerOptions, execute_points

W = "tests.runner.workers:"


def _counted(tmp_path, name, label, extra=None):
    params = {"dir": str(tmp_path), "name": name, "fail_times": 0}
    params.update(extra or {})
    return Point("exp", W + "fail_then_ok", params, seed=0, label=label)


def _attempts(tmp_path, name):
    return len(list(tmp_path.glob(f"{name}.attempt-*")))


def test_execute_points_dedupes_structurally_identical_points(tmp_path):
    cache_dir = tmp_path / "cache"
    # Same (fn, params, seed) requested under two experiment ids/labels.
    a = _counted(tmp_path, "shared", "a")
    b = Point("other", a.fn, dict(a.params), seed=0, label="b")
    results, failures = execute_points(
        [a, b], RunnerOptions(cache_dir=str(cache_dir), quiet=True))
    assert not failures
    assert results["exp/a"] == results["other/b"] == {"attempt": 0}
    assert _attempts(tmp_path, "shared") == 1  # simulated once, served twice


def test_second_invocation_executes_zero_points(tmp_path):
    cache_dir = tmp_path / "cache"
    options = RunnerOptions(cache_dir=str(cache_dir), quiet=True)
    points = [_counted(tmp_path, f"n{i}", f"n{i}", {"i": i})
              for i in range(3)]
    execute_points(points, options)
    assert _attempts(tmp_path, "n0") == 1

    progress = Progress(total=len(points), quiet=True)
    results, failures = execute_points(points, options, progress)
    assert not failures and len(results) == 3
    assert sum(_attempts(tmp_path, f"n{i}") for i in range(3)) == 3  # no new
    assert progress.cached == 3 and progress.executed == 0


def test_rerun_ignores_but_refreshes_cache(tmp_path):
    options = RunnerOptions(cache_dir=str(tmp_path / "cache"), quiet=True)
    point = _counted(tmp_path, "r", "r")
    execute_points([point], options)
    execute_points([point], RunnerOptions(cache_dir=options.cache_dir,
                                          rerun=True, quiet=True))
    assert _attempts(tmp_path, "r") == 2
    execute_points([point], options)  # rerun refreshed the entry
    assert _attempts(tmp_path, "r") == 2


def test_no_cache_mode_never_touches_disk(tmp_path):
    options = RunnerOptions(use_cache=False, quiet=True,
                            cache_dir=str(tmp_path / "cache"))
    point = _counted(tmp_path, "u", "u")
    execute_points([point], options)
    execute_points([point], options)
    assert _attempts(tmp_path, "u") == 2
    assert not (tmp_path / "cache").exists()


def test_failures_are_reported_not_raised(tmp_path):
    options = RunnerOptions(use_cache=False, retries=0, quiet=True,
                            backoff=0.01)
    good = Point("exp", W + "ok", {"a": 1}, seed=0, label="good")
    bad = Point("exp", W + "boom", {"name": "b"}, seed=0, label="bad")
    results, failures = execute_points([good, bad], options)
    assert results == {"exp/good": {"doubled": 2, "seed": 0}}
    assert len(failures) == 1
    assert failures[0].point.point_id == "exp/bad"
    assert "boom on b" in failures[0].error


@pytest.mark.slow
def test_fig09_rows_identical_for_jobs_1_and_jobs_4(tmp_path, monkeypatch):
    """ISSUE acceptance: --jobs must not change results, bit for bit.

    Reduced to one panel and one size (4 points, ~20 s total) — run_point
    reads only (params, seed), so shrinking the sweep in the parent does
    not change what each point simulates.
    """
    monkeypatch.setattr(fig09, "PANELS", [("erpc-dpdk", "dpdk", False)])
    monkeypatch.setattr(fig09, "SIZES_QUICK", [144])

    def run_with(jobs):
        options = RunnerOptions(jobs=jobs, quiet=True,
                                cache_dir=str(tmp_path / f"cache-{jobs}"))
        points = fig09.points(quick=True)
        results, failures = execute_points(points, options)
        assert not failures
        return fig09.collect(results, quick=True)

    serial = run_with(1)
    pooled = run_with(4)
    assert pooled.rows == serial.rows
    assert ([(c.name, c.passed) for c in pooled.checks]
            == [(c.name, c.passed) for c in serial.checks])
