"""D105 — dropped ownership of event-kernel handles.

- ``sim.process(gen())`` as a bare statement discards the Process
  handle, so nothing can ever ``interrupt()`` it or observe its result —
  keep it (e.g. on ``self``);
- a ``call_later``/``call_at`` handle bound to a local that
  is never read again — either :meth:`Simulator.cancel` it somewhere or
  do not bind it;
- ``sim.event()`` as a bare statement creates an event nobody can ever
  wait on (almost always a missing ``yield``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..core import Finding, ModuleInfo, Rule, attr_chain, register

__all__ = ["DroppedHandles"]

_SCHED_CALLS = {"call_later", "call_at"}


def _sim_receiver(chain: Optional[str], attr: str) -> bool:
    """True when ``chain`` looks like ``sim.<attr>`` / ``*.sim.<attr>``."""
    if chain is None or not chain.endswith("." + attr):
        return False
    receiver = chain[:-(len(attr) + 1)]
    return receiver == "sim" or receiver.endswith(".sim")


@register
class DroppedHandles(Rule):
    code = "D105"
    summary = ("dropped process/cancellation handles: bare sim.process() "
               "statements, never-read call_later handles, discarded "
               "event() results")

    def applies(self, module: ModuleInfo) -> bool:
        return (self.config.is_sim_side(module.package)
                and module.touches_scheduling)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                chain = attr_chain(node.value.func)
                if _sim_receiver(chain, "process"):
                    yield module.finding(
                        node, self.code,
                        "spawned process handle discarded — keep the "
                        "Process (e.g. on self) so it can be interrupted "
                        "and its crash attributed")
                elif _sim_receiver(chain, "event"):
                    yield module.finding(
                        node, self.code,
                        f"result of {chain}() discarded — nothing can "
                        "ever wait on the event (missing yield?)")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._dead_handles(module, node)

    def _dead_handles(self, module: ModuleInfo,
                      fn: ast.AST) -> Iterator[Finding]:
        assigns = {}  # name -> assign node
        loads: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call):
                chain = attr_chain(node.value.func)
                if any(_sim_receiver(chain, c) for c in _SCHED_CALLS):
                    name = node.targets[0].id
                    if not name.startswith("_"):
                        assigns.setdefault(name, node)
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
        for name, node in assigns.items():
            if name not in loads:
                yield module.finding(
                    node, self.code,
                    f"cancellation handle {name!r} is never read — either "
                    "sim.cancel() it on some path or drop the binding")
