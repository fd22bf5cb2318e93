"""D108/D109/D110 — registry-drift checks (whole-program).

Three registries hold cross-module contracts that drift silently under
the per-file pass:

- **D108** audit wiring: every ``(obj, "attr")`` ``debit``/``credit``/
  ``slack`` source in :mod:`repro.audit.wiring` and in each
  architecture's ``audit_register`` hook must name a real attribute on
  the object it meters, and an architecture overriding the hook must either
  defer to ``super()`` or register the standard account trio itself.
- **D109** RNG stream names: one literal stream name bound from two
  different classes/modules aliases two logically distinct draw
  sequences onto one generator; dynamic names outside the approved
  helpers defeat the project-wide collision scan; raw-registry draws in
  :mod:`repro.topo` bypass the ``"<host>."`` prefix convention.
- **D110** fault sites: ``FAULT_SITES`` keys, the ``@_handler(site,
  kind)`` implementations, and the docs/FAULTS.md site table must agree
  pairwise.

Resolution is conservative throughout: unknown or open types pass, a
``Union`` source passes when the attribute exists on at least one arm.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core import Finding, ModuleInfo, Rule, register
from ..project import FunctionInfo, Project

__all__ = ["AuditWiringDrift", "StreamNameRegistry", "FaultSiteDrift"]

_SOURCE_METHODS = frozenset({"debit", "credit", "slack"})


def _audit_functions(rule: Rule, project: Project
                     ) -> Iterator[FunctionInfo]:
    """The functions whose account sources D108 resolves: everything in
    the wiring module plus every ``audit_register`` (the base hook and
    each architecture's override)."""
    for qual in sorted(project.functions):
        fn = project.functions[qual]
        if fn.module == rule.config.audit_wiring_module:
            yield fn
        elif fn.name == rule.config.audit_hook and fn.cls is not None:
            yield fn


@register
class AuditWiringDrift(Rule):
    code = "D108"
    summary = ("audit account sources must resolve to live attributes on "
               "the metered object; arch audit_register overrides must "
               "defer to super() or register the standard account trio")
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for fn in _audit_functions(self, project):
            module = project.modules.get(fn.module)
            if module is None:
                continue
            yield from self._check_sources(project, module, fn)
        yield from self._check_arch_hooks(project)

    # -- source resolution ---------------------------------------------
    def _check_sources(self, project: Project, module: ModuleInfo,
                       fn: FunctionInfo) -> Iterator[Finding]:
        for node in Project._in_order(fn.node):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute) or \
                    node.func.attr not in _SOURCE_METHODS or \
                    len(node.args) < 2:
                continue
            source = node.args[1]
            if isinstance(source, ast.Tuple) and len(source.elts) == 2 \
                    and isinstance(source.elts[1], ast.Constant) \
                    and isinstance(source.elts[1].value, str):
                attr = source.elts[1].value
                owners = self._expr_types(project, fn, source.elts[0])
                bad = self._attr_missing(project, owners, attr)
                if bad is not None:
                    yield module.finding(
                        node, self.code,
                        f"audit source ({bad.rsplit('.', 1)[-1]}, "
                        f"{attr!r}) names an attribute that does not "
                        f"exist on {bad} — the ledger raises when it is "
                        "built, but only in the scenarios that wire it")

    def _expr_types(self, project: Project, fn: FunctionInfo,
                    expr: ast.AST) -> Tuple[str, ...]:
        return project._value_types(fn.module, expr,
                                    env=fn.local_types, cls=fn.cls)

    @staticmethod
    def _attr_missing(project: Project, owners: Tuple[str, ...],
                      attr: str) -> Optional[str]:
        """The owner proving the attribute missing, or None. A Union
        source passes when *any* arm has the attribute; unknown/open
        owners pass."""
        if not owners:
            return None
        verdicts = [project.class_has_attr(q, attr) for q in owners]
        if any(v is not False for v in verdicts):
            return None
        return owners[0]

    # -- architecture hooks --------------------------------------------
    def _check_arch_hooks(self, project: Project) -> Iterator[Finding]:
        base = project.classes.get(self.config.arch_base)
        if base is None:
            return
        hook = self.config.audit_hook
        for cls in project.subclasses_of(base.qualname):
            module = project.modules.get(cls.module)
            if module is None:
                continue
            if project.class_has_attr(cls.qualname, hook) is False:
                yield module.finding(
                    cls.node, self.code,
                    f"{cls.name} subclasses {base.name} but neither "
                    f"implements nor inherits {hook}() — its accounts "
                    "never join the conservation ledger")
                continue
            override = cls.methods.get(hook)
            if override is None:
                continue
            if self._defers_to_super(override, hook):
                continue
            registered = self._registered_accounts(override.node)
            missing = [a for a in self.config.standard_accounts
                       if a not in registered]
            if missing:
                yield module.finding(
                    override.node, self.code,
                    f"{cls.name}.{hook}() neither calls super().{hook}() "
                    f"nor registers the standard account(s) "
                    f"{', '.join(missing)} — the cross-arch balance "
                    "equations silently stop covering this architecture")

    @staticmethod
    def _defers_to_super(fn: FunctionInfo, hook: str) -> bool:
        for node in Project._in_order(fn.node):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == hook and \
                    isinstance(node.func.value, ast.Call) and \
                    isinstance(node.func.value.func, ast.Name) and \
                    node.func.value.func.id == "super":
                return True
        return False

    @staticmethod
    def _registered_accounts(node: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and \
                    isinstance(call.func, ast.Attribute) and \
                    call.func.attr == "account" and call.args and \
                    isinstance(call.args[0], ast.Constant) and \
                    isinstance(call.args[0].value, str):
                names.add(call.args[0].value)
        return names


@register
class StreamNameRegistry(Rule):
    code = "D109"
    summary = ("RNG stream names: no cross-module literal collisions, no "
               "dynamic names outside approved helpers, host-prefixed "
               "draws (HostRng) inside repro.topo")
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Finding]:
        #: literal name -> [(owner key, module, fn, node)]
        literals: Dict[str, List[Tuple[str, ModuleInfo, FunctionInfo,
                                       ast.Call]]] = {}
        for qual in sorted(project.functions):
            fn = project.functions[qual]
            if not self.config.is_sim_side(fn.module):
                continue
            if self._is_approved_helper(qual):
                continue
            module = project.modules.get(fn.module)
            if module is None:
                continue
            for node in Project._in_order(fn.node):
                if not isinstance(node, ast.Call) or \
                        not isinstance(node.func, ast.Attribute) or \
                        node.func.attr != "stream" or not node.args:
                    continue
                if self._resolves_to_helper(fn, node):
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and \
                        isinstance(arg.value, str):
                    owner = (fn.cls.qualname if fn.cls is not None
                             else fn.module)
                    literals.setdefault(arg.value, []).append(
                        (owner, module, fn, node))
                else:
                    yield module.finding(
                        node, self.code,
                        f"dynamic RNG stream name in {fn.name} — "
                        "non-literal names defeat the project-wide "
                        "collision scan; draw through an approved "
                        "helper ("
                        + ", ".join(h.rsplit(".", 2)[-2] + "." +
                                    h.rsplit(".", 2)[-1]
                                    for h in self.config.stream_helpers)
                        + ") or use a literal")
                yield from self._check_topo_prefix(project, module, fn,
                                                   node)
        for name in sorted(literals):
            sites = literals[name]
            owners = {owner for owner, _, _, _ in sites}
            if len(owners) < 2:
                continue
            for owner, module, fn, node in sites:
                others = sorted(o.rsplit(".", 1)[-1]
                                for o in owners - {owner})
                yield module.finding(
                    node, self.code,
                    f"RNG stream name {name!r} is also drawn from "
                    f"{', '.join(others)} — two components sharing one "
                    "seeded sequence couple their draw orders; rename "
                    "one stream")

    def _is_approved_helper(self, qual: str) -> bool:
        return any(qual == h or qual.startswith(h + ".")
                   for h in self.config.stream_helpers)

    def _resolves_to_helper(self, fn: FunctionInfo,
                            node: ast.Call) -> bool:
        """True when the call-graph resolved this exact call site to an
        approved helper (e.g. ``controller.stream(spec, i)``)."""
        for callee, call in fn.call_sites:
            if call is node:
                return self._is_approved_helper(callee)
        return False

    def _check_topo_prefix(self, project: Project, module: ModuleInfo,
                           fn: FunctionInfo,
                           node: ast.Call) -> Iterator[Finding]:
        if not fn.module.startswith("repro.topo"):
            return
        receiver = node.func.value
        quals = project._value_types(fn.module, receiver,
                                     env=fn.local_types, cls=fn.cls)
        registry_cls = self.config.rng_module + ".RngRegistry"
        if registry_cls in quals:
            yield module.finding(
                node, self.code,
                f"raw RngRegistry draw in {fn.name} — repro.topo code "
                "must draw through HostRng so stream names carry the "
                '"<host>." prefix and per-host draw order stays '
                "location-independent")


@register
class FaultSiteDrift(Rule):
    code = "D110"
    summary = ("FAULT_SITES keys, @_handler implementations, and the "
               "docs/FAULTS.md site table must agree pairwise")
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Finding]:
        plan = project.modules.get(self.config.fault_plan_module)
        injectors = project.modules.get(self.config.fault_injector_module)
        if plan is None or injectors is None:
            return
        sites = self._parse_sites(plan)
        if sites is None:
            return
        anchor, registry = sites
        # Handlers live in two modules: per-host injectors, plus the
        # shard coordinator's channel layer (net.channel). Both use the
        # same @_handler(site, kind) decorator shape.
        handler_modules = [injectors]
        channel = project.modules.get(self.config.fault_channel_module)
        if channel is not None:
            handler_modules.append(channel)
        handlers: Dict[Tuple[str, str],
                       Tuple[ModuleInfo, ast.AST]] = {}
        for module in handler_modules:
            for key, node in self._parse_handlers(module).items():
                handlers.setdefault(key, (module, node))

        declared = {(site, kind) for site, kinds in registry.items()
                    for kind in kinds}
        for site, kind in sorted(declared - set(handlers)):
            yield plan.finding(
                anchor, self.code,
                f"FAULT_SITES declares ({site!r}, {kind!r}) but "
                f"neither {self.config.fault_injector_module} nor "
                f"{self.config.fault_channel_module} has a @_handler "
                "for it — arming such a plan raises at injection time")
        for (site, kind), (module, node) in sorted(handlers.items()):
            if (site, kind) not in declared:
                yield module.finding(
                    node, self.code,
                    f"@_handler({site!r}, {kind!r}) implements a fault "
                    "FAULT_SITES does not declare — no plan can ever "
                    "validate it; add it to the registry or delete it")

        docs = self._parse_docs(plan)
        if docs is None:
            return
        for site in sorted(set(registry) - set(docs)):
            yield plan.finding(
                anchor, self.code,
                f"fault site {site!r} is missing from the "
                f"{self.config.fault_docs_page} site table")
        for site in sorted(set(docs) - set(registry)):
            yield plan.finding(
                anchor, self.code,
                f"{self.config.fault_docs_page} documents fault site "
                f"{site!r} which FAULT_SITES does not declare")
        for site in sorted(set(registry) & set(docs)):
            if set(registry[site]) != set(docs[site]):
                yield plan.finding(
                    anchor, self.code,
                    f"fault site {site!r}: registry kinds "
                    f"{sorted(registry[site])} != documented kinds "
                    f"{sorted(docs[site])} in "
                    f"{self.config.fault_docs_page}")

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_sites(plan: ModuleInfo
                     ) -> Optional[Tuple[ast.AST,
                                         Dict[str, Tuple[str, ...]]]]:
        for node in plan.tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value:
                target, value = node.target, node.value
            else:
                continue
            if not (isinstance(target, ast.Name)
                    and target.id == "FAULT_SITES"
                    and isinstance(value, ast.Dict)):
                continue
            registry: Dict[str, Tuple[str, ...]] = {}
            for key, val in zip(value.keys, value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(val, (ast.Tuple, ast.List))):
                    return None
                kinds = []
                for elt in val.elts:
                    if not (isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)):
                        return None
                    kinds.append(elt.value)
                registry[key.value] = tuple(kinds)
            return node, registry
        return None

    @staticmethod
    def _parse_handlers(injectors: ModuleInfo
                        ) -> Dict[Tuple[str, str], ast.AST]:
        handlers: Dict[Tuple[str, str], ast.AST] = {}
        for node in ast.walk(injectors.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                if isinstance(deco, ast.Call) and \
                        isinstance(deco.func, ast.Name) and \
                        deco.func.id == "_handler" and \
                        len(deco.args) == 2 and \
                        all(isinstance(a, ast.Constant)
                            and isinstance(a.value, str)
                            for a in deco.args):
                    handlers[(deco.args[0].value,
                              deco.args[1].value)] = node
        return handlers

    _DOC_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|([^|]*)\|")

    def _parse_docs(self, plan: ModuleInfo
                    ) -> Optional[Dict[str, Tuple[str, ...]]]:
        """Locate the docs page by walking up from the plan module's
        file, then read the site table's first two columns."""
        page: Optional[Path] = None
        for parent in Path(plan.path).resolve().parents:
            candidate = parent / self.config.fault_docs_page
            if candidate.is_file():
                page = candidate
                break
        if page is None:
            return None
        docs: Dict[str, Tuple[str, ...]] = {}
        try:
            lines = page.read_text(encoding="utf-8").splitlines()
        except OSError:
            return None
        for line in lines:
            m = self._DOC_ROW.match(line.strip())
            if m is None:
                continue
            site, kinds_cell = m.group(1), m.group(2)
            kinds = tuple(re.findall(r"`([^`]+)`", kinds_cell))
            if kinds:
                docs[site] = kinds
        return docs or None
