"""D104/D105 — misuse of the event-kernel scheduling idioms.

D104 catches the three mistakes the kernel cannot (or only at runtime)
reject:

- ``yield`` of a value that is neither a delay nor an Event inside a
  process generator (a string, a container literal, an explicit
  ``None``) — the kernel raises at runtime, but only on the execution
  path that reaches the yield;
- ``call_later``/``call_at`` with a lambda that closes over
  a loop variable — every scheduled callback sees the *last* iteration's
  value, the classic late-binding bug (bind with positional args
  instead: ``sim.call_later(d, fn, x)``);
- literal negative delays.

D105 catches dropped ownership:

- ``sim.process(gen())`` as a bare statement discards the Process
  handle, so nothing can ever ``interrupt()`` it or observe its result —
  keep it (e.g. on ``self``);
- a ``call_later``/``call_at`` handle bound to a local that
  is never read again — either :meth:`Simulator.cancel` it somewhere or
  do not bind it;
- ``sim.timeout(...)`` / ``sim.event()`` as a bare statement creates an
  event nobody can ever wait on (almost always a missing ``yield``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..core import Finding, ModuleInfo, Rule, attr_chain, register

__all__ = ["EngineIdioms", "DroppedHandles"]

_SCHED_CALLS = {"call_later", "call_at"}
_BAD_YIELD_LITERALS = (ast.List, ast.Dict, ast.Set, ast.Tuple)


def _sim_receiver(chain: Optional[str], attr: str) -> bool:
    """True when ``chain`` looks like ``sim.<attr>`` / ``*.sim.<attr>``."""
    if chain is None or not chain.endswith("." + attr):
        return False
    receiver = chain[:-(len(attr) + 1)]
    return receiver == "sim" or receiver.endswith(".sim")


def _references_sim(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id == "sim":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "sim":
            return True
        if isinstance(node, ast.arg) and node.arg == "sim":
            return True
    return False


def _is_generator(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            # Nested function defs have their own generator-ness.
            if _owner_function(fn, node) is fn:
                return True
    return False


def _owner_function(root: ast.AST, target: ast.AST) -> Optional[ast.AST]:
    """The innermost function containing ``target`` (linear walk; files
    are small and this runs per candidate yield only)."""
    owner = None

    def descend(node: ast.AST, current: Optional[ast.AST]) -> bool:
        nonlocal owner
        if node is target:
            owner = current
            return True
        for child in ast.iter_child_nodes(node):
            nxt = child if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) else current
            if descend(child, nxt):
                return True
        return False

    descend(root, root if isinstance(
        root, (ast.FunctionDef, ast.AsyncFunctionDef)) else None)
    return owner


@register
class EngineIdioms(Rule):
    code = "D104"
    summary = ("engine-idiom misuse: non-delay/non-Event yields in process "
               "generators, loop-variable lambdas in call_later, literal "
               "negative delays")

    def applies(self, module: ModuleInfo) -> bool:
        return module.touches_scheduling

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_generator(node) and _references_sim(node):
                    yield from self._check_process_yields(module, node)
        yield from self._check_calls(module)

    # -- bad yield values ------------------------------------------------
    def _check_process_yields(self, module: ModuleInfo,
                              fn: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Yield) or node.value is None:
                continue  # bare ``yield`` is the make-it-a-generator idiom
            if _owner_function(fn, node) is not fn:
                continue
            value = node.value
            bad: Optional[str] = None
            if isinstance(value, _BAD_YIELD_LITERALS):
                bad = "a container literal"
            elif isinstance(value, ast.Constant):
                v = value.value
                if v is None:
                    bad = "None"
                elif isinstance(v, bool):
                    bad = f"{v!r}"
                elif isinstance(v, (str, bytes)):
                    bad = f"{v!r}"
            elif isinstance(value, ast.UnaryOp) \
                    and isinstance(value.op, ast.USub) \
                    and isinstance(value.operand, ast.Constant) \
                    and isinstance(value.operand.value, (int, float)):
                bad = f"the negative delay -{value.operand.value!r}"
            if bad is not None:
                yield module.finding(
                    node, self.code,
                    f"process yields {bad} — the kernel accepts only an "
                    "Event or a non-negative number of nanoseconds")

    # -- call-site checks ------------------------------------------------
    def _check_calls(self, module: ModuleInfo) -> Iterator[Finding]:
        findings: List[Finding] = []

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.loop_targets: List[Set[str]] = []

            def visit_For(self, node: ast.For) -> None:
                names = {n.id for n in ast.walk(node.target)
                         if isinstance(n, ast.Name)}
                self.loop_targets.append(names)
                self.generic_visit(node)
                self.loop_targets.pop()

            visit_AsyncFor = visit_For

            def visit_Call(self, node: ast.Call) -> None:
                fn = node.func
                if isinstance(fn, ast.Attribute):
                    if fn.attr in _SCHED_CALLS:
                        self._lambda_capture(node)
                    if fn.attr in ("call_later", "timeout"):
                        self._negative_delay(node)
                self.generic_visit(node)

            def _lambda_capture(self, node: ast.Call) -> None:
                active: Set[str] = set()
                for names in self.loop_targets:
                    active |= names
                if not active:
                    return
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    if not isinstance(arg, ast.Lambda):
                        continue
                    bound = {a.arg for a in arg.args.args
                             + arg.args.posonlyargs + arg.args.kwonlyargs}
                    free = {n.id for n in ast.walk(arg.body)
                            if isinstance(n, ast.Name)
                            and isinstance(n.ctx, ast.Load)} - bound
                    captured = sorted(free & active)
                    if captured:
                        findings.append(module.finding(
                            arg, EngineIdioms.code,
                            "lambda scheduled with call_later closes over "
                            f"loop variable(s) {', '.join(captured)} — "
                            "late binding fires every callback with the "
                            "last value; pass them as call_later(d, fn, "
                            "args...) instead"))

            def _negative_delay(self, node: ast.Call) -> None:
                if not node.args:
                    return
                first = node.args[0]
                if isinstance(first, ast.UnaryOp) \
                        and isinstance(first.op, ast.USub) \
                        and isinstance(first.operand, ast.Constant) \
                        and isinstance(first.operand.value, (int, float)):
                    findings.append(module.finding(
                        first, EngineIdioms.code,
                        "literal negative delay "
                        f"-{first.operand.value!r} — the kernel rejects "
                        "this at runtime; schedule relative delays >= 0"))

        Visitor().visit(module.tree)
        yield from findings


@register
class DroppedHandles(Rule):
    code = "D105"
    summary = ("dropped process/cancellation handles: bare sim.process() "
               "statements, never-read call_later handles, discarded "
               "timeout()/event() results")

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
                elif _sim_receiver(chain, "timeout") \
                        or _sim_receiver(chain, "event"):
                    yield module.finding(
                        node, self.code,
                        f"result of {chain}() discarded — the event fires "
                        "with no waiter (missing yield?)")
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
