"""The whole-program rules (D107, D109, D111), and the run-time check
that replaced the retired D110.

Every fixture here is a *multi-module* package tree: the violation lives
in the interaction between files, so each test also proves the per-file
pass (``lint_source``) cannot see it — that is the point of the
project-scope rules.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List

from repro.lint import lint_paths, lint_source
from repro.lint.core import Finding


def build_tree(root: Path, files: Dict[str, str]) -> Path:
    """Materialise ``files`` (relative to ``src/``) as a package tree."""
    src = root / "src"
    for rel, text in files.items():
        target = src / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return src


def run_rules(src: Path, *codes: str) -> List[Finding]:
    return lint_paths([str(src)], select=list(codes))


def file_pass_misses(src: Path, rel: str, code: str) -> bool:
    """True when the per-file pass on the violating file alone cannot
    produce ``code`` — the cross-module blindness each fixture seeds."""
    path = src / rel
    findings = lint_source(str(path), path.read_text(), select=[code])
    return all(f.code != code for f in findings)


# ---------------------------------------------------------------------------
# D107 — shard-domain discipline
# ---------------------------------------------------------------------------

def test_d107_post_keyed_via_receiver_helper_is_clean(tmp_path):
    src = build_tree(tmp_path, {
        "repro/topo/helpers.py": """\
            def deliver(registry, key, payload):
                registry.post_keyed(key, payload)
        """,
        "repro/topo/chan.py": """\
            from repro.topo.helpers import deliver

            def inject_packet(registry, key, payload):
                deliver(registry, key, payload)
        """,
    })
    assert run_rules(src, "D107") == []


def test_d107_flags_post_keyed_reachable_from_non_receiver(tmp_path):
    # Same helper, but a second module calls it from outside the channel
    # receivers: the helper is no longer "private to the receivers".
    src = build_tree(tmp_path, {
        "repro/topo/helpers.py": """\
            def deliver(registry, key, payload):
                registry.post_keyed(key, payload)
        """,
        "repro/topo/chan.py": """\
            from repro.topo.helpers import deliver

            def inject_packet(registry, key, payload):
                deliver(registry, key, payload)
        """,
        "repro/topo/replay.py": """\
            from repro.topo.helpers import deliver

            def local_replay(registry, key, payload):
                deliver(registry, key, payload)
        """,
    })
    findings = run_rules(src, "D107")
    assert [f.code for f in findings] == ["D107"]
    assert findings[0].path.endswith("helpers.py")
    assert "post_keyed" in findings[0].message
    # The caller that breaks the contract is two files away: the per-file
    # pass over helpers.py alone cannot know it.
    assert file_pass_misses(src, "repro/topo/helpers.py", "D107")


def test_d107_reserve_key_requires_an_emit(tmp_path):
    src = build_tree(tmp_path, {
        "repro/shard/keys.py": """\
            def forward_cut(registry, emitter):
                key = registry.reserve_key()
                emitter.emit_boundary(key)

            def burn(registry):
                return registry.reserve_key()
        """,
    })
    findings = run_rules(src, "D107")
    assert len(findings) == 1
    assert "reserve_key" in findings[0].message
    assert "burn" in findings[0].message


def test_d107_wire_send_only_from_attach_channels(tmp_path):
    src = build_tree(tmp_path, {
        "repro/topo/install.py": """\
            def attach_channels(port, send):
                _install(port, send)

            def _install(port, send):
                port._wire_send = send
        """,
        "repro/topo/hijack.py": """\
            def hijack(port, send):
                port._wire_send = send
        """,
    })
    findings = run_rules(src, "D107")
    assert len(findings) == 1
    assert findings[0].path.endswith("hijack.py")
    assert "_wire_send" in findings[0].message


# ---------------------------------------------------------------------------
# D109 — RNG stream-name registry
# ---------------------------------------------------------------------------

def test_d109_flags_cross_module_literal_collision(tmp_path):
    src = build_tree(tmp_path, {
        "repro/hw/alpha.py": """\
            class Alpha:
                def setup(self, rng):
                    self.r = rng.stream("shared.seq")
        """,
        "repro/net/beta.py": """\
            class Beta:
                def setup(self, rng):
                    self.r = rng.stream("shared.seq")
        """,
    })
    findings = run_rules(src, "D109")
    assert len(findings) == 2  # both colliding sites are named
    assert all("shared.seq" in f.message for f in findings)
    # Each file is clean in isolation — the collision IS the violation.
    assert file_pass_misses(src, "repro/hw/alpha.py", "D109")
    assert file_pass_misses(src, "repro/net/beta.py", "D109")


def test_d109_distinct_literals_are_clean(tmp_path):
    src = build_tree(tmp_path, {
        "repro/hw/alpha.py": """\
            class Alpha:
                def setup(self, rng):
                    self.r = rng.stream("alpha.seq")
        """,
        "repro/net/beta.py": """\
            class Beta:
                def setup(self, rng):
                    self.r = rng.stream("beta.seq")
        """,
    })
    assert run_rules(src, "D109") == []


def test_d109_flags_dynamic_name_outside_approved_helper(tmp_path):
    src = build_tree(tmp_path, {
        "repro/hw/dyn.py": """\
            def make(rng, i):
                return rng.stream(f"dyn.{i}")
        """,
    })
    findings = run_rules(src, "D109")
    assert len(findings) == 1
    assert "dynamic" in findings[0].message


def test_d109_approved_helper_may_build_dynamic_names(tmp_path):
    # config.stream_helpers approves HostRng.stream in repro.topo.fabric.
    src = build_tree(tmp_path, {
        "repro/topo/fabric.py": """\
            class HostRng:
                def stream(self, name):
                    return self.registry.stream(self.host + "." + name)
        """,
    })
    assert run_rules(src, "D109") == []


def test_d109_flags_raw_registry_draw_in_topo(tmp_path):
    src = build_tree(tmp_path, {
        "repro/sim/rng.py": """\
            class RngRegistry:
                def stream(self, name):
                    return name
        """,
        "repro/topo/wiring.py": """\
            from repro.sim.rng import RngRegistry

            def draw(registry: RngRegistry):
                return registry.stream("topo.local")
        """,
    })
    findings = run_rules(src, "D109")
    assert len(findings) == 1
    assert "HostRng" in findings[0].message
    # RngRegistry is defined in another module; a per-file pass cannot
    # type the receiver.
    assert file_pass_misses(src, "repro/topo/wiring.py", "D109")


# ---------------------------------------------------------------------------
# D111 — interprocedural nondeterminism taint
# ---------------------------------------------------------------------------

def test_d111_flags_wallclock_reached_through_host_side_helper(tmp_path):
    src = build_tree(tmp_path, {
        "repro/runner/util.py": """\
            import time

            def now_ms():
                return time.monotonic() * 1000.0
        """,
        "repro/hw/engine.py": """\
            from repro.runner.util import now_ms

            def step(sim):
                return now_ms()
        """,
    })
    findings = run_rules(src, "D111")
    assert len(findings) == 1
    assert findings[0].path.endswith("engine.py")
    assert "wall-clock" in findings[0].message
    assert "now_ms()" in findings[0].message
    # engine.py never touches a clock itself: D102 and a per-file D111
    # pass are both blind to it (runner is wall-clock-exempt).
    assert file_pass_misses(src, "repro/hw/engine.py", "D111")
    assert lint_source(str(src / "repro/hw/engine.py"),
                       (src / "repro/hw/engine.py").read_text(),
                       select=["D102"]) == []


def test_d111_does_not_duplicate_per_file_findings(tmp_path):
    # The clock read sits in a sim-side module: that occurrence is
    # D102's finding, and callers of it are not re-flagged by D111.
    src = build_tree(tmp_path, {
        "repro/hw/clock.py": """\
            import time

            def read():
                return time.monotonic()
        """,
        "repro/hw/engine.py": """\
            from repro.hw.clock import read

            def step(sim):
                return read()
        """,
    })
    findings = lint_paths([str(src)], select=["D102", "D111"])
    assert [f.code for f in findings] == ["D102"]
    assert findings[0].path.endswith("clock.py")


def test_d111_flags_direct_os_entropy_in_sim_side_code(tmp_path):
    src = build_tree(tmp_path, {
        "repro/hw/ids.py": """\
            import uuid

            def fresh():
                return uuid.uuid4().hex
        """,
    })
    findings = run_rules(src, "D111")
    assert len(findings) == 1
    assert "OS-entropy" in findings[0].message


def test_d111_host_side_callers_are_not_flagged(tmp_path):
    src = build_tree(tmp_path, {
        "repro/runner/util.py": """\
            import time

            def now_ms():
                return time.monotonic() * 1000.0

            def progress():
                return now_ms()
        """,
    })
    assert run_rules(src, "D111") == []


# ---------------------------------------------------------------------------
# D110 (retired) — the run-time registry check that replaced it flags the
# same drift on the same fixtures
# ---------------------------------------------------------------------------

_WIRE_ONLY_TABLE = """\
    | site | kinds | notes |
    |------|-------|-------|
    | `wire` | `drop` | |
"""


def test_d110_declared_site_without_handler_and_vice_versa():
    from tests.faults.test_plan import fault_site_drift
    sites = {"wire": ("drop",), "nic": ("stall",)}
    handled = {("wire", "drop"), ("ghost", "boom")}
    table = _WIRE_ONLY_TABLE + "    | `nic` | `stall` | |\n"
    drift = fault_site_drift(sites, handled, textwrap.dedent(table))
    assert any("'nic'" in m and "no handler" in m for m in drift)
    assert any("'ghost'" in m and "not declared" in m for m in drift)
    assert len(drift) == 2


def test_d110_matching_registry_and_handlers_is_clean():
    from tests.faults.test_plan import fault_site_drift
    drift = fault_site_drift({"wire": ("drop",)}, {("wire", "drop")},
                             textwrap.dedent(_WIRE_ONLY_TABLE))
    assert drift == []


def test_d110_docs_table_drift():
    from tests.faults.test_plan import fault_site_drift
    sites = {"wire": ("drop", "dup"), "nic": ("stall",)}
    handled = {("wire", "drop"), ("wire", "dup"), ("nic", "stall")}
    table = textwrap.dedent("""\
        | site | kinds | notes |
        |------|-------|-------|
        | `wire` | `drop` | missing dup |
        | `legacy` | `boom` | undeclared |
    """)
    drift = fault_site_drift(sites, handled, table)
    messages = " / ".join(drift)
    assert "'nic'" in messages          # declared, undocumented
    assert "'legacy'" in messages       # documented, undeclared
    assert "'dup'" in messages          # kind sets disagree
    assert len(drift) == 3


# ---------------------------------------------------------------------------
# interplay: suppression, --select
# ---------------------------------------------------------------------------

def test_project_findings_respect_noqa(tmp_path):
    src = build_tree(tmp_path, {
        "repro/hw/ids.py": """\
            import uuid

            def fresh():
                return uuid.uuid4().hex  # repro: noqa=D111 -- test fixture
        """,
    })
    assert run_rules(src, "D111") == []


def test_select_isolates_project_rules_from_file_rules(tmp_path):
    src = build_tree(tmp_path, {
        "repro/hw/mixed.py": """\
            import uuid

            CACHE = {}

            def fresh():
                return uuid.uuid4().hex
        """,
    })
    assert {f.code for f in run_rules(src, "D106")} == {"D106"}
    assert {f.code for f in run_rules(src, "D111")} == {"D111"}
    both = run_rules(src, "D106", "D111")
    assert sorted(f.code for f in both) == ["D106", "D111"]


def test_repository_is_clean_under_whole_program_rules():
    """The real tree passes D107, D109 and D111: every accepted
    exception is an inline, justified noqa."""
    from tests.lint.test_cli import REPO_ROOT, run_cli
    code, out = run_cli([str(REPO_ROOT / "src"), "--select", "D107,D109,D111"])
    assert code == 0, f"whole-program rules found violations:\n{out}"
