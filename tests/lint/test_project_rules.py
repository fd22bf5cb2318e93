"""The whole-program rule family (D107-D111).

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

REPO_ROOT = Path(__file__).resolve().parents[2]


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
# D108 — audit-wiring drift
# ---------------------------------------------------------------------------

_NIC_MODULE = """\
    class Nic:
        def __init__(self):
            self.rx_packets = 0
            self.dropped_packets = 0
"""


def test_d108_resolves_sources_against_cross_module_class(tmp_path):
    src = build_tree(tmp_path, {
        "repro/hw/nic.py": _NIC_MODULE,
        "repro/audit/wiring.py": """\
            from repro.hw.nic import Nic

            def wire(ledger, nic: Nic):
                acct = ledger.account("nic", "packets")
                acct.debit("rx", (nic, "rx_packets"))
                acct.credit("buffered", (nic, "buffered_pkts"))
        """,
    })
    findings = run_rules(src, "D108")
    assert len(findings) == 1
    assert "buffered_pkts" in findings[0].message
    # Nic's attribute set lives in another module: per-file blindness.
    assert file_pass_misses(src, "repro/audit/wiring.py", "D108")


def test_d108_clean_when_every_source_resolves(tmp_path):
    src = build_tree(tmp_path, {
        "repro/hw/nic.py": _NIC_MODULE,
        "repro/audit/wiring.py": """\
            from repro.hw.nic import Nic

            def wire(ledger, nic: Nic):
                acct = ledger.account("nic", "packets")
                acct.debit("rx", (nic, "rx_packets"))
                acct.credit("dropped", (nic, "dropped_packets"))
        """,
    })
    assert run_rules(src, "D108") == []


_ARCH_BASE = """\
    class IOArchitecture:
        def audit_register(self, ledger):
            ledger.account("arch.delivery", "packets")
            ledger.account("arch.app_rings", "slots")
            ledger.account("arch.descriptors", "slots")
"""


def test_d108_flags_override_without_super_or_standard_trio(tmp_path):
    src = build_tree(tmp_path, {
        "repro/io_arch/base.py": _ARCH_BASE,
        "repro/io_arch/custom.py": """\
            from repro.io_arch.base import IOArchitecture

            class GoodArch(IOArchitecture):
                def audit_register(self, ledger):
                    super().audit_register(ledger)
                    ledger.account("arch.extra", "slots")

            class BadArch(IOArchitecture):
                def audit_register(self, ledger):
                    ledger.account("arch.extra", "slots")
        """,
    })
    findings = run_rules(src, "D108")
    assert len(findings) == 1
    assert "BadArch" in findings[0].message
    assert "arch.delivery" in findings[0].message
    # The standard-trio contract comes from the base class's module.
    assert file_pass_misses(src, "repro/io_arch/custom.py", "D108")


def test_d108_flags_subclass_without_the_hook(tmp_path):
    src = build_tree(tmp_path, {
        "repro/io_arch/base.py": """\
            class IOArchitecture:
                pass
        """,
        "repro/io_arch/naked.py": """\
            from repro.io_arch.base import IOArchitecture

            class NakedArch(IOArchitecture):
                pass
        """,
    })
    findings = run_rules(src, "D108")
    assert any("NakedArch" in f.message
               and "audit_register" in f.message for f in findings)


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
# D110 — fault-site registry drift
# ---------------------------------------------------------------------------

_INJECTORS = textwrap.dedent("""\
    def _handler(site, kind):
        def deco(fn):
            return fn
        return deco

    @_handler("wire", "drop")
    def _wire_drop(controller, spec, index):
        return None
""")


def test_d110_declared_site_without_handler_and_vice_versa(tmp_path):
    src = build_tree(tmp_path, {
        "repro/faults/plan.py": """\
            FAULT_SITES = {
                "wire": ("drop",),
                "nic": ("stall",),
            }
        """,
        "repro/faults/injectors.py": _INJECTORS + textwrap.dedent("""\

            @_handler("ghost", "boom")
            def _ghost(controller, spec, index):
                return None
        """),
    })
    findings = run_rules(src, "D110")
    messages = [f.message for f in findings]
    assert any("'nic'" in m for m in messages)
    assert any("'ghost'" in m for m in messages)
    assert len(findings) == 2
    # The handlers live in injectors.py, the registry in plan.py.
    assert file_pass_misses(src, "repro/faults/plan.py", "D110")
    assert file_pass_misses(src, "repro/faults/injectors.py", "D110")


def test_d110_matching_registry_and_handlers_is_clean(tmp_path):
    src = build_tree(tmp_path, {
        "repro/faults/plan.py": """\
            FAULT_SITES = {
                "wire": ("drop",),
            }
        """,
        "repro/faults/injectors.py": _INJECTORS,
    })
    assert run_rules(src, "D110") == []


def test_d110_docs_table_drift(tmp_path):
    build_tree(tmp_path, {
        "repro/faults/plan.py": """\
            FAULT_SITES = {
                "wire": ("drop", "dup"),
                "nic": ("stall",),
            }
        """,
        "repro/faults/injectors.py": _INJECTORS + textwrap.dedent("""\

            @_handler("wire", "dup")
            def _wire_dup(controller, spec, index):
                return None

            @_handler("nic", "stall")
            def _nic_stall(controller, spec, index):
                return None
        """),
    })
    docs = tmp_path / "docs" / "FAULTS.md"
    docs.parent.mkdir()
    docs.write_text(textwrap.dedent("""\
        | site | kinds | notes |
        |------|-------|-------|
        | `wire` | `drop` | missing dup |
        | `legacy` | `boom` | undeclared |
    """))
    findings = run_rules(tmp_path / "src", "D110")
    messages = " / ".join(f.message for f in findings)
    assert "'nic'" in messages          # declared, undocumented
    assert "'legacy'" in messages       # documented, undeclared
    assert "'wire'" in messages         # kind sets disagree
    assert len(findings) == 3


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
# interplay: suppression, baseline, --select, --jobs
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


def test_jobs_parallel_pass_matches_serial(tmp_path):
    src = build_tree(tmp_path, {
        "repro/hw/mixed.py": """\
            import uuid

            CACHE = {}

            def fresh():
                return uuid.uuid4().hex
        """,
        "repro/runner/util.py": """\
            import time

            def now_ms():
                return time.monotonic()
        """,
        "repro/hw/engine.py": """\
            from repro.runner.util import now_ms

            def step(sim):
                return now_ms()
        """,
    })
    serial = lint_paths([str(src)], jobs=1)
    parallel = lint_paths([str(src)], jobs=2)
    assert serial == parallel
    assert any(f.code == "D111" for f in serial)


def test_repository_is_clean_under_whole_program_rules():
    """The real tree passes D107-D111 with no baseline at all: every
    accepted exception is an inline, justified noqa."""
    from tests.lint.test_cli import run_cli
    code, out = run_cli([
        str(REPO_ROOT / "src"),
        "--no-baseline", "--select", "D107,D108,D109,D110,D111",
    ])
    assert code == 0, f"whole-program rules found violations:\n{out}"
