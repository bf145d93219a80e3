"""The nodes of the whole-program call graph over a :class:`Project`.

Every module-level function, class and method, keyed by dotted
qualname, plus each class's project-defined base classes.  The size
passes resolve calls by *name* over these tables
(:mod:`~repro.analysis.dataflow.reach`), so nothing here follows a call
site; the imprecision that buys is documented in ``docs/analysis.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from repro.analysis.dataflow.graph import Project
from repro.analysis.engine import FileContext
from repro.common.records import Record


class FunctionInfo(Record):
    """One function or method definition."""

    _fields = ("qualname", "module", "node", "cls_name")

    def __init__(
        self,
        qualname: str,  # ``repro.mod.Class.method`` / ``repro.mod.func``
        module: FileContext,
        node: ast.AST,  # FunctionDef | AsyncFunctionDef
        cls_name: Optional[str] = None,  # enclosing class, when a method
    ):
        vars(self).update(
            qualname=qualname, module=module, node=node, cls_name=cls_name,
        )

    @property
    def name(self) -> str:
        return self.node.name


class ClassInfo(Record):
    """One class definition, its methods and its project bases."""

    _fields = ("qualname", "module", "node", "methods", "bases")

    def __init__(self, qualname: str, module: FileContext, node: ast.ClassDef):
        """``qualname`` is ``repro.mod.Class``; ``bases`` are resolved
        project base-class qualnames, in declaration order."""
        vars(self).update(
            qualname=qualname, module=module, node=node, methods={}, bases=[],
        )

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
    """Functions and classes of a project."""

    def __init__(self, project: Project):
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._index(project)
        self._infer_bases()

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

    def _infer_bases(self) -> None:
        for cls in self.classes.values():
            for base in cls.node.bases:
                resolved = cls.module.qualified_name(base)
                if resolved and resolved in self.classes:
                    cls.bases.append(resolved)

    # ------------------------------------------------------------- queries

    def class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.cls_name is None:
            return None
        return self.classes.get(f"{fn.module.name}.{fn.cls_name}")
