"""Rule registry, module model, and the lint driver.

A *rule* is a class with a ``code`` (``DXXX``), a one-line ``summary``,
and a ``check(module)`` generator producing :class:`Finding` objects. A
*module* is one parsed source file plus everything rules commonly need:
its dotted package name, raw lines, inline suppressions, and a lazily
computed "touches the engine's scheduling API" flag.

Findings pass one filter before they reach the report: inline
``# repro: noqa=DXXX`` suppressions (:mod:`repro.lint.suppress`).

Rules come in two *scopes*. ``scope = "file"`` rules (D101–D103, D105,
D106) see one :class:`ModuleInfo` at a time and also run under
:func:`lint_source`.
``scope = "project"`` rules (D107, D109, D111) run only in :func:`lint_paths`,
after every file has been parsed, against the resolved
:class:`~repro.lint.project.Project` view — which is exactly why a
single-file invocation provably cannot reproduce their findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Type

from .config import DEFAULT_CONFIG, LintConfig
from .suppress import parse_noqa

__all__ = [
    "Finding", "Rule", "ModuleInfo", "RULES", "register",
    "lint_paths", "lint_source", "iter_python_files", "dotted_name",
    "attr_chain",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


#: Registered rule classes by code, in registration order.
RULES: Dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


class Rule:
    """Base class for lint rules.

    File-scope rules implement :meth:`check`; project-scope rules set
    ``scope = "project"`` and implement :meth:`check_project` instead.
    """

    code: str = ""
    summary: str = ""
    #: "file" rules run per module (and under ``lint_source``);
    #: "project" rules run once per ``lint_paths`` invocation against
    #: the whole-program view.
    scope: str = "file"

    def __init__(self, config: LintConfig):
        self.config = config

    def applies(self, module: "ModuleInfo") -> bool:  # pragma: no cover
        return True

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError


#: Attribute-call names that mean "this module schedules on the engine".
SCHEDULING_ATTRS = frozenset({
    "call_later", "call_at", "process", "spawn_loop", "run_process",
})


def attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted source text of a Name/Attribute chain (``self.sim.event``),
    or ``None`` if the chain roots in something else (a call, a subscript)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def dotted_name(path: Path) -> str:
    """Dotted module name for ``path``.

    Anything under a ``src`` directory is named from there
    (``src/repro/hw/nic.py`` -> ``repro.hw.nic``); otherwise the name is
    rooted at the last recognisable top-level directory (``tests``,
    ``benchmarks``, ``examples``, ``scripts``) or just the file stem.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in ("src",):
        if anchor in parts:
            parts = parts[len(parts) - parts[::-1].index(anchor):]
            return ".".join(parts)
    for top in ("tests", "benchmarks", "examples", "scripts"):
        if top in parts:
            parts = parts[parts.index(top):]
            return ".".join(parts)
    return parts[-1] if parts else ""


class ModuleInfo:
    """One parsed source file with the context rules need."""

    def __init__(self, path: str, source: str, config: LintConfig,
                 package: Optional[str] = None):
        self.path = path
        self.config = config
        self.lines = source.splitlines()
        self.package = package if package is not None \
            else dotted_name(Path(path))
        self.tree = ast.parse(source, filename=path)
        #: line -> set of suppressed codes (or ALL) from ``# repro: noqa``.
        self.noqa = parse_noqa(self.lines)
        self._touches_scheduling: Optional[bool] = None

    @property
    def touches_scheduling(self) -> bool:
        """Whether this module calls into the engine's scheduling API
        (``sim.process``/``call_later``/... or constructs a
        ``Simulator``). Ordering-sensitivity rules only fire here."""
        if self._touches_scheduling is None:
            found = False
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Call):
                    fn = node.func
                    if (isinstance(fn, ast.Attribute)
                            and fn.attr in SCHEDULING_ATTRS):
                        found = True
                        break
                    if isinstance(fn, ast.Name) and fn.id == "Simulator":
                        found = True
                        break
            self._touches_scheduling = found
        return self._touches_scheduling

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(self.path, getattr(node, "lineno", 0),
                       getattr(node, "col_offset", 0) + 1, code, message)


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files or directories),
    sorted for deterministic report order, skipping caches."""
    seen = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file() and p.suffix == ".py":
            candidates = [p]
        elif p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        else:
            candidates = []
        for c in candidates:
            if "__pycache__" in c.parts or c in seen:
                continue
            seen.add(c)
            yield c


def _instantiate_rules(config: LintConfig,
                       select: Optional[Iterable[str]] = None,
                       scope: Optional[str] = None) -> List[Rule]:
    codes = set(select) if select else None
    rules = []
    for code, cls in sorted(RULES.items()):
        if codes is not None and code not in codes:
            continue
        if scope is not None and cls.scope != scope:
            continue
        rules.append(cls(config))
    return rules


def _check_module(module: ModuleInfo, rules: List[Rule]) -> List[Finding]:
    """Run file-scope ``rules`` over one module, dropping suppressed
    findings."""
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies(module):
            continue
        for f in rule.check(module):
            if not module.noqa.suppresses(f.line, f.code):
                findings.append(f)
    return findings


def lint_source(path: str, source: str,
                config: LintConfig = DEFAULT_CONFIG,
                select: Optional[Iterable[str]] = None,
                package: Optional[str] = None) -> List[Finding]:
    """Lint one in-memory source blob with the **file-scope** rules;
    returns suppression-filtered, sorted findings. Project-scope rules
    need the whole-program view and only run under :func:`lint_paths`.
    ``package`` overrides dotted-name derivation (used by rule unit
    tests to place fixtures in arbitrary packages)."""
    try:
        module = ModuleInfo(path, source, config, package=package)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, (exc.offset or 0) or 1,
                        "E999", f"syntax error: {exc.msg}")]
    return sorted(_check_module(
        module, _instantiate_rules(config, select, scope="file")))


def lint_paths(paths: Iterable[str],
               config: LintConfig = DEFAULT_CONFIG,
               select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint files/directories; returns sorted, suppression-filtered
    findings.

    Runs the per-file pass, then builds the whole-program
    :class:`~repro.lint.project.Project` over every successfully parsed
    module and runs the project-scope rules against it.
    """
    findings: List[Finding] = []
    modules: List[ModuleInfo] = []
    for file in iter_python_files(paths):
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(str(file), 0, 1, "E902",
                                    f"cannot read file: {exc}"))
            continue
        try:
            modules.append(ModuleInfo(str(file), source, config))
        except SyntaxError as exc:
            findings.append(Finding(str(file), exc.lineno or 0,
                                    (exc.offset or 0) or 1, "E999",
                                    f"syntax error: {exc.msg}"))

    file_rules = _instantiate_rules(config, select, scope="file")
    for module in modules:
        findings.extend(_check_module(module, file_rules))

    project_rules = _instantiate_rules(config, select, scope="project")
    if project_rules:
        from .project import Project
        project = Project(modules)
        for rule in project_rules:
            for f in rule.check_project(project):
                owner = project.modules_by_path.get(f.path)
                if owner is not None and \
                        owner.noqa.suppresses(f.line, f.code):
                    continue
                findings.append(f)
    return sorted(findings)
