"""Whole-program view: module graph, symbol table, and call graph.

The per-file pass sees one AST at a time; the cross-module contracts
this repo lives on — the shard channel protocol, project-wide RNG stream
naming, interprocedural nondeterminism taint — need a resolved view of
the *whole* ``src/repro`` tree built once per lint run. :class:`Project`
provides it:

- **module graph** — dotted name -> :class:`~repro.lint.core.ModuleInfo`,
  plus each module's import bindings (``import``/``from``/relative forms
  resolved to project-dotted targets);
- **symbol table** — every class with its methods and a light
  attribute/parameter *type* map inferred from constructor calls
  (``self.dma = DmaEngine(...)``) and annotations — resolved through the
  import graph and inherited through resolved bases;
- **call graph** — function-level edges from direct calls, imported-name
  calls, ``self.method()`` dispatch through the resolved base chain, and
  typed-local method calls; nested ``def``s add *defines* edges so
  reachability follows closures installed by a protocol entry point.

Everything is resolved **conservatively**: an unresolvable base class or
callee simply contributes no edge. Rules built on this view must only
flag what the resolved facts prove.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import ModuleInfo, attr_chain

__all__ = ["ClassInfo", "FunctionInfo", "Project"]

class FunctionInfo:
    """One function or method: its AST, owner, resolved callees, and the
    local name -> candidate-class-quals type environment."""

    __slots__ = ("qualname", "module", "name", "node", "cls", "calls",
                 "call_sites", "defines", "local_types", "parent")

    def __init__(self, qualname: str, module: str, name: str,
                 node: ast.AST, cls: Optional["ClassInfo"] = None,
                 parent: Optional["FunctionInfo"] = None):
        self.qualname = qualname
        self.module = module
        self.name = name
        self.node = node
        self.cls = cls
        self.parent = parent
        #: Resolved callee qualnames (project functions only).
        self.calls: Set[str] = set()
        #: (callee qualname, Call node) pairs, in source order.
        self.call_sites: List[Tuple[str, ast.Call]] = []
        #: Qualnames of functions defined lexically inside this one.
        self.defines: Set[str] = set()
        #: local / parameter name -> tuple of candidate class qualnames.
        self.local_types: Dict[str, Tuple[str, ...]] = {}


class ClassInfo:
    """One class: attribute types, methods, resolved bases."""

    __slots__ = ("qualname", "module", "name", "node", "base_exprs",
                 "bases", "attr_types", "methods")

    def __init__(self, qualname: str, module: str, name: str,
                 node: ast.ClassDef):
        self.qualname = qualname
        self.module = module
        self.name = name
        self.node = node
        #: Base-class expressions as written (dotted text), pre-resolution.
        self.base_exprs: List[str] = []
        #: Resolved base qualnames (link phase).
        self.bases: List[str] = []
        #: attr -> candidate class qualnames (from ctor calls/annotations).
        self.attr_types: Dict[str, Tuple[str, ...]] = {}
        self.methods: Dict[str, FunctionInfo] = {}


def _annotation_names(node: Optional[ast.AST]) -> List[str]:
    """Dotted class names appearing in an annotation expression
    (``SwitchPort``, ``Optional[Nic]``, ``Union[A, B]``, ``"Host"``)."""
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
    names: List[str] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Subscript):
            head = attr_chain(n.value)
            if head is not None and head.rsplit(".", 1)[-1] == "Callable":
                continue  # parameter lists of Callable are not receivers
            stack.append(n.slice)
            continue
        if isinstance(n, (ast.Tuple, ast.List)):
            stack.extend(n.elts)
            continue
        chain = attr_chain(n)
        if chain is not None:
            tail = chain.rsplit(".", 1)[-1]
            if tail not in ("Optional", "Union", "None"):
                names.append(chain)
    return names


def _module_base(module: ModuleInfo) -> str:
    """The package a level-1 relative import resolves against."""
    if module.path.endswith("__init__.py"):
        return module.package
    return module.package.rsplit(".", 1)[0] if "." in module.package else ""


class Project:
    """The resolved whole-program view over one lint run's modules."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        #: dotted name -> ModuleInfo (first wins on duplicates).
        self.modules: Dict[str, ModuleInfo] = {}
        #: path -> ModuleInfo (suppression lookup for project findings).
        self.modules_by_path: Dict[str, ModuleInfo] = {}
        #: module dotted name -> {local binding -> dotted target}.
        self.imports: Dict[str, Dict[str, str]] = {}
        #: class qualname ("repro.hw.nic.Nic") -> ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        #: function qualname ("repro.hw.nic.Nic.receive") -> FunctionInfo.
        self.functions: Dict[str, FunctionInfo] = {}
        for m in modules:
            self.modules.setdefault(m.package, m)
            self.modules_by_path.setdefault(m.path, m)
        for m in self.modules.values():
            self._collect_imports(m)
        for m in self.modules.values():
            self._collect_defs(m)
        for cls in self.classes.values():
            self._link_bases(cls)
        for fn in list(self.functions.values()):
            self._analyse_function(fn)

    # ------------------------------------------------------------------
    # Phase 1: imports
    # ------------------------------------------------------------------
    def _collect_imports(self, module: ModuleInfo) -> None:
        table: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        # ``import a.b.c`` binds ``a``.
                        top = alias.name.split(".")[0]
                        table.setdefault(top, top)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = _module_base(module)
                    for _ in range(node.level - 1):
                        anchor = (anchor.rsplit(".", 1)[0]
                                  if "." in anchor else "")
                    base = f"{anchor}.{base}" if base else anchor
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = \
                        f"{base}.{alias.name}" if base else alias.name
        self.imports[module.package] = table

    # ------------------------------------------------------------------
    # Phase 2: classes and functions
    # ------------------------------------------------------------------
    def _collect_defs(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                self._collect_class(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(module, node, f"{module.package}."
                                       f"{node.name}", cls=None, parent=None)
            elif isinstance(node, (ast.If, ast.Try)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.ClassDef):
                        self._collect_class(module, inner)

    def _collect_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{module.package}.{node.name}"
        info = ClassInfo(qual, module.package, node.name, node)
        for base in node.bases:
            chain = attr_chain(base)
            if chain is not None:
                info.base_exprs.append(chain)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._collect_function(
                    module, stmt, f"{qual}.{stmt.name}", cls=info,
                    parent=None)
                info.methods[stmt.name] = fn
                self._collect_self_attrs(module, info, stmt)
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                quals = self._resolve_annotation(module.package,
                                                 stmt.annotation)
                if quals:
                    info.attr_types.setdefault(stmt.target.id, quals)
        self.classes.setdefault(qual, info)

    def _collect_self_attrs(self, module: ModuleInfo, info: ClassInfo,
                            method: ast.AST) -> None:
        """Record ``self.x`` attribute types assigned inside ``method``."""
        for node in ast.walk(method):
            targets: List[ast.AST]
            value: Optional[ast.AST]
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
                quals = self._resolve_annotation(module.package,
                                                 node.annotation)
                t = node.target
                if quals and isinstance(t, ast.Attribute) and \
                        isinstance(t.value, ast.Name) and \
                        t.value.id == "self":
                    info.attr_types.setdefault(t.attr, quals)
            else:
                continue
            if value is None or len(targets) != 1 or \
                    isinstance(targets[0], (ast.Tuple, ast.List)):
                continue
            for t in ast.walk(targets[0]):
                if isinstance(t, ast.Attribute) and \
                        isinstance(t.value, ast.Name) and \
                        t.value.id == "self":
                    quals = self._value_types(module.package, value)
                    if quals:
                        info.attr_types.setdefault(t.attr, quals)

    def _collect_function(self, module: ModuleInfo, node: ast.AST,
                          qualname: str, cls: Optional[ClassInfo],
                          parent: Optional[FunctionInfo]) -> FunctionInfo:
        fn = FunctionInfo(qualname, module.package, node.name, node,
                          cls=cls, parent=parent)
        self.functions.setdefault(qualname, fn)
        if parent is not None:
            parent.defines.add(qualname)
        # _in_order stops at nested defs, so every one it yields is an
        # immediate child; deeper nests register through the recursion.
        for stmt in self._in_order(node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(module, stmt,
                                       f"{qualname}.{stmt.name}",
                                       cls=cls, parent=fn)
        return fn

    # ------------------------------------------------------------------
    # Phase 3: base linking
    # ------------------------------------------------------------------
    def _link_bases(self, cls: ClassInfo) -> None:
        for expr in cls.base_exprs:
            qual = self.resolve(cls.module, expr)
            if qual is not None and qual in self.classes:
                cls.bases.append(qual)

    # ------------------------------------------------------------------
    # Phase 4: call graph + local types
    # ------------------------------------------------------------------
    def _analyse_function(self, fn: FunctionInfo) -> None:
        node = fn.node
        env = fn.local_types
        args = getattr(node, "args", None)
        if args is not None:
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                quals = self._resolve_annotation(fn.module, arg.annotation)
                if quals:
                    env[arg.arg] = quals
        if fn.cls is not None and args is not None and \
                (args.posonlyargs + args.args):
            first = (args.posonlyargs + args.args)[0].arg
            env.setdefault(first, (fn.cls.qualname,))
        for stmt in self._in_order(node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                quals = self._value_types(fn.module, stmt.value, env=env,
                                          cls=fn.cls)
                if quals:
                    env[stmt.targets[0].id] = quals
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                quals = self._resolve_annotation(fn.module, stmt.annotation)
                if quals:
                    env[stmt.target.id] = quals
            if isinstance(stmt, ast.Call):
                callee = self._resolve_call(fn, stmt, env)
                if callee is not None:
                    fn.calls.add(callee)
                    fn.call_sites.append((callee, stmt))

    @staticmethod
    def _in_order(root: ast.AST) -> Iterator[ast.AST]:
        """Depth-first, source-order walk that does not descend into
        nested function definitions (they are analysed separately)."""
        stack = deque(ast.iter_child_nodes(root))
        while stack:
            node = stack.popleft()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extendleft(reversed(list(ast.iter_child_nodes(node))))

    def _resolve_call(self, fn: FunctionInfo, call: ast.Call,
                      env: Dict[str, Tuple[str, ...]]) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            # Nested function defined here, module function, or import.
            nested = f"{fn.qualname}.{func.id}"
            if nested in self.functions:
                return nested
            if fn.parent is not None:
                sibling = f"{fn.parent.qualname}.{func.id}"
                if sibling in self.functions:
                    return sibling
            qual = self.resolve(fn.module, func.id)
            if qual in self.functions:
                return qual
            if qual in self.classes:
                init = f"{qual}.__init__"
                return init if init in self.functions else None
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            # super().method()
            if isinstance(base, ast.Call) and \
                    isinstance(base.func, ast.Name) and \
                    base.func.id == "super" and fn.cls is not None:
                return self._resolve_method(fn.cls.bases, func.attr)
            chain = attr_chain(base)
            if chain is None:
                return None
            # module alias: mod.fn(...)
            qual = self.resolve(fn.module, f"{chain}.{func.attr}")
            if qual in self.functions:
                return qual
            # typed receiver: obj.method(...)
            for cls_qual in self._chain_types(fn, chain, env):
                resolved = self._resolve_method([cls_qual], func.attr)
                if resolved is not None:
                    return resolved
        return None

    def _resolve_method(self, roots: Sequence[str],
                        name: str) -> Optional[str]:
        for cls_qual in self.iter_mro(roots):
            cls = self.classes.get(cls_qual)
            if cls is not None and name in cls.methods:
                return cls.methods[name].qualname
        return None

    # ------------------------------------------------------------------
    # Resolution helpers (also the rule-facing API)
    # ------------------------------------------------------------------
    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve ``dotted`` as written in ``module`` to a project
        qualname (module, class, or function) or None."""
        parts = dotted.split(".")
        table = self.imports.get(module, {})
        local = f"{module}.{parts[0]}"
        if local in self.classes or local in self.functions:
            return local if len(parts) == 1 else self._descend(local, parts[1:])
        if parts[0] in table:
            target = table[parts[0]]
            full = ".".join([target] + parts[1:])
        else:
            full = dotted
        return self._resolve_full(full)

    def _resolve_full(self, full: str) -> Optional[str]:
        if full in self.modules or full in self.classes \
                or full in self.functions:
            return full
        if "." in full:
            head, tail = full.rsplit(".", 1)
            resolved_head = self._resolve_full(head)
            if resolved_head is not None:
                return self._descend(resolved_head, [tail])
        return None

    def _descend(self, qual: str, parts: Sequence[str]) -> Optional[str]:
        for part in parts:
            candidate = f"{qual}.{part}"
            if candidate in self.modules or candidate in self.classes \
                    or candidate in self.functions:
                qual = candidate
                continue
            # Re-exported name: follow the module's own import table.
            if qual in self.modules:
                nested = self.imports.get(qual, {}).get(part)
                if nested is not None:
                    resolved = self._resolve_full(nested)
                    if resolved is not None:
                        qual = resolved
                        continue
            return None
        return qual

    def _resolve_annotation(self, module: str,
                            annotation: Optional[ast.AST]
                            ) -> Tuple[str, ...]:
        quals = []
        for name in _annotation_names(annotation):
            qual = self.resolve(module, name)
            if qual in self.classes:
                quals.append(qual)
        return tuple(dict.fromkeys(quals))

    def _value_types(self, module: str, value: ast.AST,
                     env: Optional[Dict[str, Tuple[str, ...]]] = None,
                     cls: Optional[ClassInfo] = None) -> Tuple[str, ...]:
        """Candidate classes of a right-hand side: a constructor call, a
        typed local, ``self.attr`` with a known attribute type, or an
        attribute step off a typed value."""
        if isinstance(value, ast.Call):
            chain = attr_chain(value.func)
            if chain is not None:
                qual = self.resolve(module, chain)
                if qual in self.classes:
                    return (qual,)
            return ()
        chain = attr_chain(value)
        if chain is None:
            return ()
        parts = chain.split(".")
        quals: Tuple[str, ...] = ()
        if env is not None and parts[0] in env:
            quals = env[parts[0]]
        elif parts[0] == "self" and cls is not None:
            quals = (cls.qualname,)
        else:
            return ()
        for attr in parts[1:]:
            quals = self.attr_types_of(quals, attr)
            if not quals:
                return ()
        return quals

    def _chain_types(self, fn: FunctionInfo, chain: str,
                     env: Dict[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        dummy = ast.parse(chain, mode="eval").body
        return self._value_types(fn.module, dummy, env=env, cls=fn.cls)

    # ------------------------------------------------------------------
    # Symbol-table queries
    # ------------------------------------------------------------------
    def iter_mro(self, roots: Sequence[str]) -> Iterator[str]:
        """Roots plus all resolved bases, depth-first, deduplicated."""
        seen: Set[str] = set()
        stack = list(reversed(list(roots)))
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            yield qual
            cls = self.classes.get(qual)
            if cls is not None:
                stack.extend(reversed(cls.bases))

    def attr_types_of(self, quals: Sequence[str],
                      attr: str) -> Tuple[str, ...]:
        out: List[str] = []
        for qual in quals:
            for c in self.iter_mro([qual]):
                cls = self.classes.get(c)
                if cls is not None and attr in cls.attr_types:
                    out.extend(cls.attr_types[attr])
                    break
        return tuple(dict.fromkeys(out))

    def enclosing_function(self, module: ModuleInfo,
                           node: ast.AST) -> Optional[FunctionInfo]:
        """The innermost project function whose body contains ``node``
        (matched by position, for rules that walk a module's tree)."""
        best: Optional[FunctionInfo] = None
        best_span = None
        for fn in self.functions.values():
            if fn.module != module.package:
                continue
            f = fn.node
            end = getattr(f, "end_lineno", None)
            if end is None:
                continue
            if f.lineno <= node.lineno <= end:
                span = end - f.lineno
                if best_span is None or span < best_span:
                    best, best_span = fn, span
        return best

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable_from(self, roots: Sequence[str],
                       follow_defines: bool = True) -> Set[str]:
        """Transitive closure over call (and optionally defines) edges."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            fn = self.functions[qual]
            nxt = set(fn.calls)
            if follow_defines:
                nxt |= fn.defines
            stack.extend(sorted(nxt - seen))
        return seen

    def find_path(self, start: str, targets: Set[str],
                  follow_defines: bool = False) -> Optional[List[str]]:
        """Shortest call path from ``start`` to any of ``targets``
        (deterministic: neighbours visited in sorted order)."""
        if start not in self.functions:
            return None
        prev: Dict[str, Optional[str]] = {start: None}
        queue = deque([start])
        while queue:
            qual = queue.popleft()
            if qual in targets:
                path = []
                cur: Optional[str] = qual
                while cur is not None:
                    path.append(cur)
                    cur = prev[cur]
                return list(reversed(path))
            fn = self.functions.get(qual)
            if fn is None:
                continue
            nxt = set(fn.calls)
            if follow_defines:
                nxt |= fn.defines
            for callee in sorted(nxt):
                if callee not in prev:
                    prev[callee] = qual
                    queue.append(callee)
        return None
