"""Tests for the experiment report containers and registry plumbing."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.report import ExperimentResult, fmt, render_table


def make_result():
    return ExperimentResult(exp_id="x", title="T", paper_claim="C")


def test_fmt_scales():
    assert fmt(0.0) == "0"
    assert fmt(1234.5) == "1234"
    assert fmt(3.14159) == "3.14"
    assert fmt(0.01234) == "0.012"
    assert fmt("abc") == "abc"


def test_render_table_alignment():
    out = render_table(["a", "bbbb"], [[1, 2], [333, 4]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert all(len(l) >= len("a    bbbb") - 2 for l in lines)


def test_check_records_pass_fail():
    r = make_result()
    assert r.check("ok", True)
    assert not r.check("bad", False, "detail")
    assert not r.all_passed
    assert "PASS" in str(r.checks[0])
    assert "FAIL" in str(r.checks[1])
    assert "detail" in str(r.checks[1])


def test_check_order():
    r = make_result()
    assert r.check_order("desc", {"a": 3, "b": 2, "c": 2}, ["a", "b", "c"])
    assert not r.check_order("bad", {"a": 1, "b": 2}, ["a", "b"])


def test_check_ratio_bounds():
    r = make_result()
    assert r.check_ratio("r", 10, 5, lo=1.5, hi=3.0)
    assert not r.check_ratio("r2", 10, 5, lo=2.5)
    assert not r.check_ratio("r3", 10, 5, lo=1.0, hi=1.5)


def test_render_includes_rows_and_checks():
    r = make_result()
    r.headers = ["col"]
    r.rows = [[42]]
    r.check("fine", True)
    r.notes.append("hello")
    text = r.render()
    assert "42" in text
    assert "[PASS] fine" in text
    assert "note: hello" in text
    assert "paper: C" in text


def test_registry_lists_all_paper_artifacts():
    expected = {"fig04a", "fig04b", "fig09", "fig10a", "fig10b",
                "fig11", "fig12", "table2", "table3", "table4",
                "limits", "ablations", "lessons", "chaos", "soak",
                "incast", "shard_chaos", "capacity"}
    assert expected == set(EXPERIMENTS)


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_registered_with_sweep_contract(exp_id):
    """Every experiment is a point sweep: ``points`` + ``collect``, unique
    point ids, and a point list that is a pure function of its inputs."""
    spec = EXPERIMENTS[exp_id]
    assert callable(spec.points) and callable(spec.collect)
    pts = spec.points(quick=True)
    assert pts
    assert len({p.point_id for p in pts}) == len(pts)
    assert spec.points(quick=True) == pts
    # With no root seed, every lessons/limits point runs at the seed its
    # EXPERIMENTS.md table was calibrated at.
    default_seed = {"lessons": 37, "limits": 23}.get(exp_id)
    if default_seed is not None:
        assert all(p.seed == default_seed for p in pts)


def test_run_experiment_unknown_id():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig99")


def test_run_experiment_smoke_table3():
    """The cheapest real experiment end-to-end through the registry."""
    result = run_experiment("table3", quick=True)
    assert result.exp_id == "table3"
    assert result.rows
    assert result.all_passed, result.render()
