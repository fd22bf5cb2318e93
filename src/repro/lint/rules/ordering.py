"""D103 — unordered iteration must not reach the event calendar.

In a module that schedules on the engine, iterating a ``set`` (directly,
or laundered through ``list()``) makes *event order* depend on hash
order. For str/object elements that varies across interpreter runs
(``PYTHONHASHSEED``); even for ints it couples results to insertion
history. The same goes for ``sorted(..., key=id)`` — CPython addresses
are not reproducible. Iterate sorted snapshots (``sorted(s)``) or keep
insertion-ordered structures (``dict``, ``deque``) instead.

Detection is intentionally syntactic: set literals/comprehensions and
``set()``/``frozenset()`` calls, plus a small module-wide inference pass
that follows simple assignments (``self._touched = set()`` …
``touched = self._touched`` … ``for fid in touched``). Order-insensitive
sinks (membership tests, ``sum``/``min``/``max``/``any`` over a
generator, set comprehensions) are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..core import Finding, ModuleInfo, Rule, register

__all__ = ["UnorderedIteration"]

#: Calls that preserve (dis)order of their first argument.
_PASSTHROUGH = {"list", "tuple", "iter", "enumerate", "reversed"}
#: Calls producing a known-ordered result whatever the argument.
_ORDERING = {"sorted"}
_SET_CALLS = {"set", "frozenset"}
#: Known-ordered values: assignment of one of these *demotes* a name
#: from the set-typed map (the name is reused for something ordered).
_ORDERED_LITERALS = (ast.List, ast.Tuple, ast.Dict, ast.ListComp,
                     ast.DictComp, ast.GeneratorExp)
_ORDERED_CALLS = {"list", "tuple", "dict", "sorted", "deque", "str"}


def _is_set_literalish(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _SET_CALLS)


class _SetTypes:
    """Module-wide map of names / attribute names with set-typed values."""

    def __init__(self, tree: ast.Module):
        self.names: Set[str] = set()
        self.attrs: Set[str] = set()
        demoted_names: Set[str] = set()
        demoted_attrs: Set[str] = set()
        # Two passes so one level of aliasing propagates
        # (``touched = self._touched`` after ``self._touched = set()``).
        for _ in range(2):
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        self._bind(target, node.value,
                                   demoted_names, demoted_attrs)
                elif isinstance(node, ast.AnnAssign) and node.value:
                    self._bind(node.target, node.value,
                               demoted_names, demoted_attrs)
        self.names -= demoted_names
        self.attrs -= demoted_attrs

    def _bind(self, target: ast.AST, value: ast.AST,
              demoted_names: Set[str], demoted_attrs: Set[str]) -> None:
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                and len(target.elts) == len(value.elts):
            for t, v in zip(target.elts, value.elts):
                self._bind(t, v, demoted_names, demoted_attrs)
            return
        set_typed = _is_set_literalish(value) or self.is_set_valued(value)
        ordered = isinstance(value, _ORDERED_LITERALS) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in _ORDERED_CALLS)
        if isinstance(target, ast.Name):
            if set_typed:
                self.names.add(target.id)
            elif ordered:
                demoted_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            if set_typed:
                self.attrs.add(target.attr)
            elif ordered:
                demoted_attrs.add(target.attr)

    def is_set_valued(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs
        return False


@register
class UnorderedIteration(Rule):
    code = "D103"
    summary = ("no set iteration or id()-based sort keys in modules that "
               "schedule on the engine — ordering leaks into event order")

    def applies(self, module: ModuleInfo) -> bool:
        return (self.config.is_sim_side(module.package)
                and module.touches_scheduling)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        types = _SetTypes(module.tree)

        def unordered(expr: ast.AST) -> bool:
            if _is_set_literalish(expr) or types.is_set_valued(expr):
                return True
            if isinstance(expr, ast.Call) and \
                    isinstance(expr.func, ast.Name) and expr.args:
                if expr.func.id in _ORDERING:
                    return False
                if expr.func.id in _PASSTHROUGH:
                    return unordered(expr.args[0])
            return False

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and unordered(node.iter):
                yield module.finding(
                    node.iter, self.code,
                    "iteration over a set in a scheduling module — event "
                    "order inherits hash order; iterate sorted(...) or an "
                    "insertion-ordered structure")
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                for gen in node.generators:
                    if unordered(gen.iter):
                        yield module.finding(
                            gen.iter, self.code,
                            "comprehension over a set in a scheduling "
                            "module builds an ordered result from hash "
                            "order — iterate sorted(...) instead")
            elif isinstance(node, ast.Call):
                is_sorted = (isinstance(node.func, ast.Name)
                             and node.func.id == "sorted")
                is_sort_method = (isinstance(node.func, ast.Attribute)
                                  and node.func.attr == "sort")
                if not (is_sorted or is_sort_method):
                    continue
                for kw in node.keywords:
                    if kw.arg == "key" and isinstance(kw.value, ast.Name) \
                            and kw.value.id == "id":
                        yield module.finding(
                            node, self.code,
                            "sort key id() is an interpreter address — "
                            "not reproducible across runs; sort on a "
                            "stable field instead")
