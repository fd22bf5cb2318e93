"""Audit plumbing through the runner: outcomes, runlog, cache, strict
gating, and the cache-key compatibility guarantee."""

import hashlib
import json

from repro.experiments import ExperimentSpec
from repro.experiments.report import ExperimentResult
from repro.runner import (
    Point,
    Progress,
    ResultCache,
    RunnerOptions,
    cache_key,
    execute_points,
)

W = "tests.runner.workers:"


def _audited_point(leak=0, label="p", tmp_path=None, name=None):
    params = {"leak": leak}
    if tmp_path is not None:
        params.update({"dir": str(tmp_path), "name": name or label})
    return Point("exp", W + "audited", params, seed=0, label=label)


def _attempts(tmp_path, name):
    return len(list(tmp_path.glob(f"{name}.attempt-*")))


def test_outcome_and_progress_carry_audit_summary(tmp_path):
    progress = Progress(total=2, quiet=True)
    options = RunnerOptions(use_cache=False, quiet=True)
    execute_points([_audited_point(0, "good"), _audited_point(3, "bad")],
                   options, progress)
    assert progress.audit_reports == 2
    assert progress.audit_checked == 2
    assert progress.audit_violations == 1
    assert progress.audit_failed_points == {"exp/bad": 1}


def test_runlog_gets_audit_fields_and_summary_event(tmp_path):
    runlog = tmp_path / "runlog.jsonl"
    progress = Progress(total=1, quiet=True, jsonl_path=str(runlog))
    execute_points([_audited_point(2, "bad")],
                   RunnerOptions(use_cache=False, quiet=True), progress)
    progress.summary()
    events = [json.loads(line) for line in runlog.read_text().splitlines()]
    done = next(e for e in events if e["event"] == "point_done")
    assert done["audit"]["violations"] == 1
    assert "test.flow" in done["audit"]["details"][0]
    summary = next(e for e in events if e["event"] == "audit_summary")
    assert summary["checked"] == 1
    assert summary["violations"] == 1
    assert summary["failed_points"] == {"exp/bad": 1}


def test_cache_roundtrips_audit_summary(tmp_path):
    options = RunnerOptions(cache_dir=str(tmp_path / "cache"), quiet=True)
    point = _audited_point(0, "a", tmp_path, "a")
    execute_points([point], options)
    assert _attempts(tmp_path, "a") == 1

    cache = ResultCache(str(tmp_path / "cache"))
    entry = cache.get_entry(point)
    assert entry["audit"] == {"reports": 1, "checked": 1, "violations": 0}

    progress = Progress(total=1, quiet=True)
    execute_points([point], options, progress)
    assert _attempts(tmp_path, "a") == 1          # served from cache
    assert progress.cached == 1
    assert progress.audit_checked == 1            # audit recalled with it


def test_healthy_cache_key_is_byte_identical_to_historical(tmp_path):
    point = Point("exp", W + "ok", {"a": 1}, seed=7, label="x")
    fingerprint = "deadbeefdeadbeef"
    historical = hashlib.sha256(
        f"{point.content_key}|{fingerprint}".encode()).hexdigest()
    assert cache_key(point, fingerprint) == historical
    assert cache_key(point, fingerprint, audit_tag="") == historical
    assert cache_key(point, fingerprint, audit_tag="v1") != historical


def test_strict_audit_never_trusts_untagged_entries(tmp_path):
    cache_dir = str(tmp_path / "cache")
    point = _audited_point(0, "s", tmp_path, "s")
    execute_points([point], RunnerOptions(cache_dir=cache_dir, quiet=True))
    assert _attempts(tmp_path, "s") == 1

    strict = RunnerOptions(cache_dir=cache_dir, quiet=True,
                           strict_audit=True)
    execute_points([point], strict)
    assert _attempts(tmp_path, "s") == 2          # tagged key: re-executed
    execute_points([point], strict)
    assert _attempts(tmp_path, "s") == 2          # tagged entry now hits


def _fake_spec(leak):
    def points(quick=True, seed=None):
        return [_audited_point(leak, "p0")]

    def collect(results, quick=True, seed=None):
        return ExperimentResult(exp_id="fake", title="fake",
                                paper_claim="none")

    return ExperimentSpec(exp_id="fake", description="fake",
                          points=points, collect=collect)


def test_strict_audit_cli_gates_exit_code(tmp_path, monkeypatch, capsys):
    from repro.experiments import EXPERIMENTS
    from repro.experiments.__main__ import main

    monkeypatch.setitem(EXPERIMENTS, "fake", _fake_spec(leak=3))
    base = ["fake", "--cache-dir", str(tmp_path / "c"), "--quiet"]
    assert main(base) == 0                        # violations don't gate...
    assert main(base + ["--strict-audit"]) == 1   # ...unless asked to
    err = capsys.readouterr().err
    assert "strict audit" in err
    assert "exp/p0" in err

    monkeypatch.setitem(EXPERIMENTS, "fake", _fake_spec(leak=0))
    assert main(["fake", "--cache-dir", str(tmp_path / "c2"), "--quiet",
                 "--strict-audit"]) == 0
