"""Whole-program module table and import graph.

The rule packs see one function at a time; everything in
:mod:`repro.analysis.dataflow` needs the *program*: which modules exist,
what each one imports, and (for the call graph built on top) which
symbols each module defines.  This module is that substrate.

A :class:`Project` is a parsed snapshot of a source tree — every file
read and parsed exactly once, into the
:class:`~repro.analysis.engine.FileContext` the rule packs run on:

- ``modules`` — logical dotted name (``repro.sim.engine``) -> parsed
  file, with its resolved **import edges** filled in;
- ``parse_findings`` — one ``PARSE`` finding per file that did not
  parse (the analyzer never crashes on bad input);
- :class:`ImportEdge` — one ``import``/``from`` statement resolved to
  the dotted module it depends on, with the source line (findings point
  at it) and whether the import is gated behind
  ``typing.TYPE_CHECKING`` (annotation-only edges do not create runtime
  layering dependencies and are excluded from the gate).

Resolution is *textual*, not executable: ``from repro.scheduler import
broker`` becomes an edge to ``repro.scheduler.broker`` when that module
is in the project, else to ``repro.scheduler``; external imports
(``threading``) are kept as opaque dotted names.  Nothing is ever
imported.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.engine import FileContext, Finding, iter_python_files


@dataclass(frozen=True)
class ImportEdge:
    """One import dependency of a module."""

    source: str  #: importing module's dotted name
    target: str  #: imported dotted name (module-resolved when possible)
    lineno: int
    type_checking: bool = False  #: inside ``if TYPE_CHECKING:`` only
    toplevel: bool = True  #: module scope (False: deferred, in a def)


class Project:
    """A parsed source tree, keyed by logical module name."""

    def __init__(
        self,
        modules: Dict[str, FileContext],
        parse_findings: List[Finding],
    ):
        self.modules = modules
        self.parse_findings = parse_findings

    @classmethod
    def load(cls, paths: Iterable[str]) -> "Project":
        """Parse every ``.py`` file under ``paths`` once (deterministic
        order); a file that fails to parse becomes a ``PARSE`` finding
        and is otherwise left out."""
        modules: Dict[str, FileContext] = {}
        parse_findings: List[Finding] = []
        for path in iter_python_files(paths):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as error:
                parse_findings.append(
                    Finding(
                        file=path,
                        line=error.lineno or 1,
                        col=error.offset or 0,
                        rule_id="PARSE",
                        severity="error",
                        message=f"syntax error: {error.msg}",
                    )
                )
                continue
            module = FileContext(path, source, tree)
            modules[module.name] = module
        project = cls(modules, parse_findings)
        for module in modules.values():
            module.import_edges = list(project._edges_for(module))
        return project

    def _edges_for(self, module: FileContext) -> Iterable[ImportEdge]:
        type_checking_spans = _type_checking_lines(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield ImportEdge(
                        source=module.name,
                        target=alias.name,
                        lineno=node.lineno,
                        type_checking=node.lineno in type_checking_spans,
                        toplevel=node.col_offset == 0,
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._import_from_base(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    # ``from pkg import mod`` names a submodule when one
                    # exists; otherwise the dependency is on ``pkg``.
                    candidate = f"{base}.{alias.name}"
                    target = (
                        candidate if candidate in self.modules else base
                    )
                    yield ImportEdge(
                        source=module.name,
                        target=target,
                        lineno=node.lineno,
                        type_checking=node.lineno in type_checking_spans,
                        toplevel=node.col_offset == 0,
                    )

    def _import_from_base(
        self, module: FileContext, node: ast.ImportFrom
    ) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: level 1 is the module's own package (which,
        # for a package ``__init__``, is the module name itself).
        parts = module.name.split(".")
        if not module.path.endswith(os.sep + "__init__.py"):
            parts = parts[:-1]
        up = node.level - 1
        if up:
            if len(parts) < up:
                return None
            parts = parts[:-up]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None


def _type_checking_lines(tree: ast.Module) -> Set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` guards (annotation-only
    imports; excluded from runtime layering)."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_guard = (
            isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        ) or (
            isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING"
        )
        if not is_guard:
            continue
        for child in node.body:
            end = getattr(child, "end_lineno", child.lineno)
            lines.update(range(child.lineno, end + 1))
    return lines


def top_package(module_name: str) -> Optional[str]:
    """First package component under ``repro``: ``repro.sim.engine`` →
    ``sim``; the root module itself (``repro``) has none."""
    parts = module_name.split(".")
    if not parts or parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]
