"""D109 — RNG stream-name registry (whole-program).

One literal stream name bound from two different classes/modules aliases
two logically distinct draw sequences onto one generator; dynamic names
outside the approved helpers defeat the project-wide collision scan;
raw-registry draws in :mod:`repro.topo` bypass the ``"<host>."`` prefix
convention.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from ..core import Finding, ModuleInfo, Rule, register
from ..project import FunctionInfo, Project

__all__ = ["StreamNameRegistry"]


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
