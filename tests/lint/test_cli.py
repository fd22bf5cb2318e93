"""Suppression, CLI exit codes — and the meta-test that keeps the
repository itself lint-clean."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import lint_source
from repro.lint.cli import _build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SIM_MODULE = textwrap.dedent("""\
    import random

    CACHE = {}

    def jitter():
        return random.random()
""")


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_cli_capturing_stderr(argv):
    """Like :func:`run_cli` but returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_pkg(root: Path, source: str) -> Path:
    """Materialise ``source`` as a file inside a sim-side package tree."""
    pkg = root / "src" / "repro" / "hw"
    pkg.mkdir(parents=True)
    target = pkg / "fixture.py"
    target.write_text(source)
    return target


# ---------------------------------------------------------------------------
# noqa suppression
# ---------------------------------------------------------------------------

def test_noqa_suppresses_named_code():
    src = "CACHE = {}  # repro: noqa=D106\n"
    assert lint_source("x.py", src, package="repro.hw.x") == []


def test_noqa_multiple_codes_and_whitespace():
    src = ("import random\n"
           "RNG = random.Random(0)  # repro: noqa=D101, D106\n")
    assert lint_source("x.py", src, package="repro.hw.x") == []


def test_noqa_bare_suppresses_everything_on_line():
    src = "CACHE = {}  # repro: noqa\n"
    assert lint_source("x.py", src, package="repro.hw.x") == []


def test_noqa_wrong_code_does_not_suppress():
    src = "CACHE = {}  # repro: noqa=D101\n"
    findings = lint_source("x.py", src, package="repro.hw.x")
    assert [f.code for f in findings] == ["D106"]


def test_noqa_only_applies_to_its_own_line():
    src = ("FIRST = {}  # repro: noqa=D106\n"
           "SECOND = {}\n")
    findings = lint_source("x.py", src, package="repro.hw.x")
    assert [(f.code, f.line) for f in findings] == [("D106", 2)]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_exit_zero_on_clean_tree(tmp_path):
    write_pkg(tmp_path, "LIMITS = (1, 2, 3)\n")
    code, _ = run_cli([str(tmp_path / "src")])
    assert code == 0


def test_cli_exit_one_and_renders_findings(tmp_path):
    target = write_pkg(tmp_path, BAD_SIM_MODULE)
    code, out = run_cli([str(tmp_path / "src")])
    assert code == 1
    assert str(target) in out
    assert "D101" in out and "D106" in out


def test_cli_select_unknown_code_is_usage_error(tmp_path):
    write_pkg(tmp_path, "CACHE = {}\n")
    code, _ = run_cli([str(tmp_path / "src"), "--select", "D999"])
    assert code == 2


def test_cli_missing_path_is_usage_error(tmp_path):
    write_pkg(tmp_path, "LIMITS = (1,)\n")
    missing = tmp_path / "no_such_dir"
    code, out, err = run_cli_capturing_stderr(
        [str(tmp_path / "src"), str(missing)])
    assert code == 2
    assert str(missing) in err
    assert out == ""


def test_cli_takes_only_paths_select_and_list_rules():
    dests = {a.dest for a in _build_parser()._actions} - {"help"}
    assert dests == {"paths", "select", "list_rules"}


def test_cli_list_rules():
    code, out = run_cli(["--list-rules"])
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == ["D101", "D102", "D103", "D105", "D106",
                      "D107", "D109", "D111"]


def test_module_entry_point(tmp_path):
    """``python -m repro.lint`` works as documented for CI."""
    write_pkg(tmp_path, "CACHE = {}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(tmp_path / "src")],
        capture_output=True, text=True,
        cwd=REPO_ROOT, env={"PYTHONPATH": str(REPO_ROOT / "src"),
                            "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "D106" in proc.stdout


# ---------------------------------------------------------------------------
# meta-test: the repository itself must be clean
# ---------------------------------------------------------------------------

def test_repository_is_lint_clean():
    """Running every rule over src/ yields zero findings: each accepted
    exception in the tree is an inline, justified noqa."""
    code, out = run_cli([str(REPO_ROOT / "src")])
    assert code == 0, f"repro.lint found new violations:\n{out}"
