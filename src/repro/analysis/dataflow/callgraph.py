"""Approximate whole-program call graph over a :class:`Project`.

Python call resolution without running the program is necessarily
approximate; this resolver is tuned for the idioms this codebase
actually uses (and the imprecision is documented in
``docs/analysis.md``):

- ``self.method(...)`` — resolved through the enclosing class,
  following single-inheritance bases defined in the project;
- ``self.attr.method(...)`` — resolved when ``attr``'s type was
  inferred from an ``__init__`` assignment of a project class
  (``self.backend = ResultBackend()`` types ``backend``);
- ``name(...)`` / ``mod.func(...)`` / ``mod.Class(...)`` — resolved
  through the file's import-alias map and the module symbol tables;
  constructing a project class resolves to its ``__init__``.

Everything else (``time.time``, a local variable, a lambda) is outside
the project and resolves to nothing.

Beyond call edges the graph carries the per-class facts the race pass
needs: which ``self.X`` attributes are locks (the same factory + name
inference the single-file concurrency rules use) and the inferred type
of every ``self.X`` attribute.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.dataflow.graph import Project
from repro.analysis.engine import FileContext, self_attr

#: Methods that run before any second thread can hold the instance —
#: accesses there are construction, not sharing.
CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__new__", "__post_init__", "__del__"}
)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  #: ``repro.mod.Class.method`` / ``repro.mod.func``
    module: FileContext
    node: ast.AST  #: FunctionDef | AsyncFunctionDef
    cls_name: Optional[str] = None  #: enclosing class, when a method

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One class definition plus the inferred facts about it."""

    qualname: str  #: ``repro.mod.Class``
    module: FileContext
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.X`` attributes assigned a threading lock factory.
    lock_attrs: Set[str] = field(default_factory=set)
    #: ``self.X`` -> dotted type name (project class qualname or
    #: external dotted name) inferred from constructor-call assignments.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: resolved project base-class qualnames, in declaration order.
    bases: List[str] = field(default_factory=list)

    def lookup_method(
        self, graph: "CallGraph", name: str
    ) -> Optional[FunctionInfo]:
        """Find ``name`` on this class or (project-defined) bases."""
        seen: Set[str] = set()
        queue = [self.qualname]
        while queue:
            cls_qualname = queue.pop(0)
            if cls_qualname in seen:
                continue
            seen.add(cls_qualname)
            cls = graph.classes.get(cls_qualname)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            queue.extend(cls.bases)
        return None


class CallGraph:
    """Functions, classes, and resolved call edges of a project."""

    def __init__(self, project: Project):
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._index(project)
        self._infer_class_facts()

    # ------------------------------------------------------------ indexing

    def _index(self, project: Project) -> None:
        for module in project.modules.values():
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(
                        qualname=f"{module.name}.{node.name}",
                        module=module,
                        node=node,
                    )
                    self.functions[info.qualname] = info
                elif isinstance(node, ast.ClassDef):
                    self._index_class(module, node)

    def _index_class(self, module: FileContext, node: ast.ClassDef) -> None:
        cls = ClassInfo(
            qualname=f"{module.name}.{node.name}",
            module=module,
            node=node,
            lock_attrs=module.lock_attrs[node.name],
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{cls.qualname}.{item.name}",
                    module=module,
                    node=item,
                    cls_name=node.name,
                )
                cls.methods[item.name] = info
                self.functions[info.qualname] = info
        self.classes[cls.qualname] = cls

    def _infer_class_facts(self) -> None:
        for cls in self.classes.values():
            for base in cls.node.bases:
                resolved = cls.module.qualified_name(base)
                if resolved and resolved in self.classes:
                    cls.bases.append(resolved)
            # ``__init__`` first so its assignment wins ties; then the
            # other methods (late-created helpers like monitor threads).
            methods = sorted(
                cls.methods.values(),
                key=lambda m: (m.name != "__init__", m.name),
            )
            for method in methods:
                self._infer_attr_types(cls, method)

    def _infer_attr_types(
        self, cls: ClassInfo, method: FunctionInfo
    ) -> None:
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            type_name = cls.module.qualified_name(node.value.func)
            if type_name is None:
                continue
            for attr in filter(None, map(self_attr, node.targets)):
                cls.attr_types.setdefault(attr, type_name)

    # ---------------------------------------------------------- resolution

    def resolve_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
    ) -> Optional[FunctionInfo]:
        """The project function a call site invokes, or None when the
        callee is external or opaque (a local variable, a lambda, a
        subscript)."""
        func = call.func
        # self.method(...) / self.attr.method(...)
        if fn.cls_name and isinstance(func, ast.Attribute):
            target = self._resolve_self_call(fn, func)
            if target is not None:
                return target
        dotted = fn.module.qualified_name(func)
        if dotted in self.classes:
            return self.classes[dotted].lookup_method(self, "__init__")
        return self.functions.get(dotted)

    def _resolve_self_call(
        self, fn: FunctionInfo, func: ast.Attribute
    ) -> Optional[FunctionInfo]:
        cls = self.classes.get(
            f"{fn.module.name}.{fn.cls_name}"
        )
        if cls is None:
            return None
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            return cls.lookup_method(self, func.attr)
        if self_attr(receiver):
            attr_type = cls.attr_types.get(receiver.attr)
            if attr_type and attr_type in self.classes:
                return self.classes[attr_type].lookup_method(
                    self, func.attr
                )
        return None

    # ------------------------------------------------------------- queries

    def class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.cls_name is None:
            return None
        return self.classes.get(f"{fn.module.name}.{fn.cls_name}")
