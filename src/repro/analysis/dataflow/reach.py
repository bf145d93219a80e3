"""``DEAD-REACH`` — a function, method or class that no root reaches.

ROADMAP aim 2 asks of every definition "what would change if this were
gone?"; this pass answers it for the case "nothing but a test".

- **Roots** are the callers a user can actually start: every file
  under the repository's
  :data:`~repro.analysis.dataflow.layering.ROOT_DIRECTORIES`
  (``examples/``, ``benchmarks/``) — what it imports from the package,
  names in its code, or spells in a string constant (``"pkg.mod:func"``
  pool targets, the perf harness's ``TARGETS`` table) — and every
  module-level statement of a module that ``repro.cli``,
  ``repro.__main__`` or a root file imports, directly or transitively
  (``repro.__main__`` calling ``repro.cli:main`` is one; a module
  nothing imports never runs, so everything in it is dead).  ``tests/``
  is never a root, and neither is an ``import`` or an ``__all__`` entry
  of the package itself: a re-export is not a caller.
- **Liveness** is a closure over *names*, which contains every edge the
  call graph resolves and errs towards "alive" wherever it cannot: a
  name (``f``, ``obj.f``, or a string constant spelling an identifier
  or dotted path, i.e. a ``getattr``/envelope target) in a live body
  keeps every same-named definition alive.  So registry tables,
  functions passed as values, a base-class call to an overridden method
  and ``getattr`` dispatch never yield a finding.  A method is alive
  only once its class is; dunder methods, and every method of a class
  with a base outside the project (``ast.NodeVisitor``'s ``visit_*``,
  ``Thread.run``), live with the class; a definition behind a
  registering decorator lives with its module.

A tree without the entry module (``repro.cli``) is a fragment, not a
program: the pass reports nothing there.  False negatives (a dead
definition sharing its name with a live one) are the accepted failure
mode; a definition kept for a reason no analysis sees carries
``# repro: noqa[DEAD-REACH]`` and the reason on its ``def`` line.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.dataflow.callgraph import (
    CallGraph,
    ClassInfo,
    FunctionInfo,
)
from repro.analysis.dataflow.graph import Project
from repro.analysis.dataflow.layering import ROOT_DIRECTORIES
from repro.analysis.engine import FileContext, Finding, iter_python_files

RULE_ID = "DEAD-REACH"
SEVERITY = "warning"

#: The module whose presence makes a linted tree a program.
ENTRY_MODULE = "repro.cli"

#: Decorators that only change how a definition is *called*; any other
#: decorator may register it somewhere, so it lives with its module.
TRANSPARENT_DECORATORS = frozenset(
    {
        "staticmethod",
        "classmethod",
        "property",
        "cached_property",
        "contextmanager",
        "dataclass",
        "setter",
    }
)

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")

Definition = Union[FunctionInfo, ClassInfo]


def walk(node: ast.AST, skip: Iterable[ast.AST] = ()) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into the ``skip`` nodes."""
    skipped = {id(item) for item in skip}
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if id(child) not in skipped
        )


def mentions(nodes: Iterable[ast.AST], imports: bool = False) -> Set[str]:
    """Every name the nodes could be referring to a definition by."""
    names: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names.update(re.split("[.:]", node.value))
        elif imports and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def tail(node: ast.AST) -> str:
    """The last name of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    return getattr(node, "attr", getattr(node, "id", ""))


def _implicitly_used(node: ast.AST, module: FileContext) -> bool:
    """Alive without a mention: a dunder (the interpreter calls it), a
    definition behind a decorator that may have registered it, or one
    whose pragma says a caller no analysis sees needs it."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    if module.suppressed(node.lineno, RULE_ID):
        return True
    return any(
        tail(getattr(decorator, "func", decorator))
        not in TRANSPARENT_DECORATORS
        for decorator in node.decorator_list
    )


class Liveness:
    """The live definitions of a project, and the scopes that are its
    live code (what :mod:`~repro.analysis.dataflow.census` counts call
    sites in)."""

    def __init__(self, project: Project, graph: CallGraph):
        self.graph = graph
        #: qualname -> live definition.
        self.live: Dict[str, Definition] = {}
        #: (enclosing class name or None, AST nodes) of every live
        #: scope, roots first.
        self.scopes: List[Tuple[Optional[str], List[ast.AST]]] = []
        self._names: Set[str] = set()
        self._pending: List[str] = []
        self._by_name: Dict[str, List[Definition]] = {}
        entry = project.modules[ENTRY_MODULE]
        imported = {ENTRY_MODULE, "repro.__main__"}
        for table in (graph.functions, graph.classes):
            for qualname in sorted(table):
                definition = table[qualname]
                self._by_name.setdefault(
                    definition.node.name, []
                ).append(definition)
                if definition.module.suppressed(
                    definition.node.lineno, RULE_ID
                ):
                    imported.add(definition.module.name)
        for tree in _root_trees(os.path.dirname(entry.path)):
            nodes = list(ast.walk(tree))
            self._scan(nodes, imports=True)
            imported.update(_imports(nodes))
        #: modules whose module-level statements ever run: imported,
        #: directly or transitively, by a root.
        self.imported = _import_closure(project, imported)
        for name in sorted(self.imported):
            self._scan_module(project.modules[name])
        while self._pending:
            for definition in self._by_name.get(self._pending.pop(), ()):
                owner = self._owner(definition)
                if definition.module.name in self.imported and (
                    owner is None or owner.qualname in self.live
                ):
                    self._enliven(definition)

    def _owner(self, definition: Definition) -> Optional[ClassInfo]:
        if isinstance(definition, FunctionInfo):
            return self.graph.class_of(definition)
        return None

    def _scan(
        self,
        nodes: Iterable[ast.AST],
        cls_name: Optional[str] = None,
        imports: bool = False,
    ) -> None:
        nodes = list(nodes)
        self.scopes.append((cls_name, nodes))
        fresh = mentions(nodes, imports) - self._names
        self._names |= fresh
        self._pending.extend(sorted(fresh))

    def _scan_module(self, module: FileContext) -> None:
        """Module-level statements run at import; definitions, imports
        and ``__all__`` only bind names."""
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if _implicitly_used(stmt, module):
                    self._pending.append(stmt.name)
                continue
            if isinstance(stmt, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in stmt.targets
            ):
                continue
            self._scan(ast.walk(stmt))

    def _enliven(self, definition: Definition) -> None:
        if definition.qualname in self.live:
            return
        self.live[definition.qualname] = definition
        if isinstance(definition, FunctionInfo):
            self._scan(ast.walk(definition.node), definition.cls_name)
            return
        methods = list(definition.methods.values())
        self._scan(
            walk(definition.node, [m.node for m in methods]),
            definition.node.name,
        )
        framework = len(definition.node.bases) > len(definition.bases)
        for method in methods:
            if (
                framework
                or _implicitly_used(method.node, method.module)
                or method.name in self._names
            ):
                self._enliven(method)


def _imports(nodes: Iterable[ast.AST]) -> Iterator[str]:
    """Dotted names a root file imports, or spells as the module half
    of a ``"pkg.mod:func"`` / ``"pkg.mod"`` string."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                yield node.value.partition(":")[0]


def _import_closure(project: Project, seeds: Iterable[str]) -> Set[str]:
    """Project modules importing any of ``seeds`` executes: the named
    ones, their parent packages, and whatever those import in turn
    (``TYPE_CHECKING`` imports never execute)."""
    seen: Set[str] = set()
    stack = list(seeds)
    while stack:
        parts = stack.pop().split(".")
        for end in range(1, len(parts) + 1):
            name = ".".join(parts[:end])
            if name in project.modules and name not in seen:
                seen.add(name)
                stack.extend(
                    edge.target
                    for edge in project.modules[name].import_edges
                    if not edge.type_checking
                )
    return seen


def _root_trees(package_dir: str) -> Iterator[ast.Module]:
    """Parsed files of the root directories, found from the repository
    root: the package's parent, or its grandparent under ``src/``."""
    root = os.path.dirname(os.path.abspath(package_dir))
    if os.path.basename(root) == "src":
        root = os.path.dirname(root)
    for path in iter_python_files(
        os.path.join(root, name) for name in ROOT_DIRECTORIES
    ):
        with open(path, "r", encoding="utf-8") as handle:
            try:
                yield ast.parse(handle.read(), filename=path)
            except SyntaxError:
                continue  # not ours to report; it just roots nothing


def find_unreachable(liveness: Liveness) -> List[Finding]:
    """``DEAD-REACH`` findings, one per dead definition (a dead class
    is reported once, not per method)."""
    graph = liveness.graph
    findings: List[Finding] = []
    for table in (graph.functions, graph.classes):
        for qualname in sorted(table):
            definition = table[qualname]
            owner = liveness._owner(definition)
            if qualname in liveness.live or (
                owner is not None and owner.qualname not in liveness.live
            ):
                continue
            kind = (
                "class"
                if isinstance(definition, ClassInfo)
                else "method" if owner is not None else "function"
            )
            findings.append(
                definition.module.finding(
                    definition.node,
                    RULE_ID,
                    SEVERITY,
                    f"{kind} {qualname} is reached by no root "
                    "(cli, module level, examples/, benchmarks/); "
                    "delete it with the tests only it keeps alive",
                )
            )
    return findings
