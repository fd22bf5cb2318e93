"""``python -m repro.scenario`` CLI: validate / show / list-templates, and
``run``'s early rejection of a bad ``--shard-kill`` entry."""

import json

from repro.scenario import (TEMPLATE_NAMES, build_topology, canonical,
                            template, validate)
from repro.scenario.cli import main
from repro.topo import partition


def test_list_templates(capsys):
    assert main(["list-templates"]) == 0
    out = capsys.readouterr().out
    for name in TEMPLATE_NAMES:
        assert name in out


def test_validate_all_templates(capsys):
    assert main(["validate", *TEMPLATE_NAMES]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == len(TEMPLATE_NAMES)


def test_validate_file_and_bad_file(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(template("paper-baseline")))
    bad = tmp_path / "bad.json"
    spec = template("paper-baseline")
    spec["hosts"] = {"*": {"arch": "tcp"}}
    bad.write_text(json.dumps(spec))
    assert main(["validate", str(good)]) == 0
    capsys.readouterr()
    assert main(["validate", str(good), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "hosts.*.arch" in out


def test_validate_missing_file(capsys):
    assert main(["validate", "no-such-scenario"]) == 1
    assert "neither a shipped template" in capsys.readouterr().out


def test_validate_non_json_file(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["validate", str(junk)]) == 1
    assert "not valid JSON" in capsys.readouterr().out


def test_show_canonical_matches_library(capsys):
    assert main(["show", "incast-32", "--canonical"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == canonical(template("incast-32"))


def test_show_pretty_is_valid_json(capsys):
    assert main(["show", "paper-baseline"]) == 0
    normal = json.loads(capsys.readouterr().out)
    assert normal["name"] == "paper-baseline"


def test_run_rejects_a_bad_kill_plan_entry(capsys):
    hosted = partition(build_topology(validate(
        template("all-to-all-storage"))), 2).heaviest
    for kill, error in ((f"5:{hosted}", f"kill_plan entry (5, {hosted})"),
                        ("5:9", "kill_plan entry (5, 9)"),
                        ("-1:1", "kill_plan entry (-1, 1)"),
                        ("x:1", "WINDOW:SHARD")):
        assert main(["run", "all-to-all-storage", "--shards", "2",
                     "--shard-mode", "process",
                     f"--shard-kill={kill}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error in captured.err
