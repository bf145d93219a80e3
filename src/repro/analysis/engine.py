"""The static-analysis rule engine.

The analyzer is the enforcement arm of the reproducibility contract: the
paper's claim that a run is explainable from the database alone only holds
if *no* code path smuggles in wall-clock time, process-unique ids, or
unseeded randomness — and the resilience layer's fifteen-odd lock sites
only stay deadlock-free if their discipline is checked, not remembered.

Design (one parse, one pass, many rules):

- :class:`FileContext` is the one parsed-file record: built once per
  file by :meth:`repro.analysis.dataflow.graph.Project.load`, it carries
  the source lines, the logical module name (``repro.sim.engine``), an
  import-alias map so ``from time import time as _t; _t()`` still
  resolves to ``time.time``, the ``# repro: noqa`` pragmas, and — for
  the whole-program passes — the resolved import edges and module-level
  symbols.
- :func:`run_rules` performs a *single* recursive traversal of one file,
  dispatching every node to the rules that registered interest in its
  type (``Rule.interests``) and maintaining the ancestor stack (for "am
  I under a ``with`` holding a lock?" questions).
- Findings are plain :class:`Finding` records with a content-based
  fingerprint (module + rule + stripped source line) that SARIF
  consumers use to track a finding across line-number churn.
- ``# repro: noqa`` / ``# repro: noqa[RULE-ID,...]`` on the offending
  line is the only way to accept a finding, auditable by grep;
  :func:`repro.analysis.lint_paths` applies it to every rule alike.
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

#: Finding severities, most severe first (sort order relies on this).
SEVERITIES = ("error", "warning", "info")

#: threading factories whose results are lock-like.
LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9\-, ]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    file: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        """Content-based identity (SARIF partial fingerprint): stable
        across line-number churn, invalidated when the offending line
        changes."""
        digest = hashlib.sha256()
        for part in (self.file, self.rule_id, self.snippet.strip()):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()[:16]

    def sort_key(self) -> Tuple:
        return (self.file, self.line, self.col, self.rule_id)


class FileContext:
    """One parsed source file: everything a rule or a whole-program pass
    may ask about it."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        #: logical dotted module name (``repro.sim.engine``).
        self.name = logical_module(path)
        #: Ancestor stack of the node currently being dispatched
        #: (outermost first, excluding the node itself).
        self.ancestors: List[ast.AST] = []
        #: local name -> fully qualified dotted name (import aliases).
        self.imports = _collect_imports(tree)
        self._noqa = _collect_noqa(self.lines)
        #: resolved import edges, filled by ``Project.load``.
        self.import_edges: List[Any] = []
        #: module-level function and class names.
        self.symbols = {
            node.name
            for node in tree.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        }

    # ----------------------------------------------------------- helpers

    def in_module(self, *prefixes: str) -> bool:
        """True when the file's logical module matches any dotted prefix."""
        for prefix in prefixes:
            if self.name == prefix or self.name.startswith(prefix + "."):
                return True
        return False

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(
        self, where: Any, rule_id: str, severity: str, message: str
    ) -> Finding:
        """A finding at ``where`` — an AST node, or anything else with a
        ``lineno`` — carrying that line as its snippet."""
        lineno = getattr(where, "lineno", 1)
        return Finding(
            file=self.path,
            line=lineno,
            col=getattr(where, "col_offset", 0),
            rule_id=rule_id,
            severity=severity,
            message=message,
            snippet=self.line_text(lineno).strip(),
        )

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted name, following the
        file's import aliases (``from time import time`` => ``time.time``)
        and qualifying the file's own module-level symbols."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            root = node.id
            if root in self.symbols:
                root = f"{self.name}.{root}"
        parts.append(root)
        return ".".join(reversed(parts))

    @cached_property
    def lock_attrs(self) -> Dict[str, Set[str]]:
        """Class name -> the ``self.X`` attributes its methods assign a
        threading lock factory to (so ``self._idle =
        threading.Condition()`` makes ``_idle`` a lock of its class)."""
        found: Dict[str, Set[str]] = {}
        for cls in ast.walk(self.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            attrs = found.setdefault(cls.name, set())
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and self.qualified_name(node.value.func)
                    in LOCK_FACTORIES
                ):
                    attrs.update(filter(None, map(self_attr, node.targets)))
        return found

    def enclosing_class(self) -> Optional[ast.ClassDef]:
        for node in reversed(self.ancestors):
            if isinstance(node, ast.ClassDef):
                return node
        return None

    def suppressed(self, lineno: int, rule_id: str) -> bool:
        rules = self._noqa.get(lineno)
        if rules is None:
            return False
        return not rules or rule_id in rules


class Rule:
    """Base class for all rules.

    Subclasses set ``rule_id`` and ``severity``, say what they catch in
    their docstring, declare the node types they want in ``interests``,
    and implement :meth:`visit`.
    """

    rule_id: str = "RULE"
    severity: str = "warning"
    interests: Tuple[Type[ast.AST], ...] = ()

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    # ----------------------------------------------------------- helpers

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return ctx.finding(node, self.rule_id, self.severity, message)


def run_rules(ctx: FileContext, rules: Iterable[Rule]) -> List[Finding]:
    """One traversal of ``ctx.tree``, every node dispatched to the rules
    interested in its type; pragmas are applied by the caller."""
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        for node_type in rule.interests:
            dispatch.setdefault(node_type, []).append(rule)
    findings: List[Finding] = []

    def visit(node: ast.AST) -> None:
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.visit(node, ctx))
        ctx.ancestors.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)
        ctx.ancestors.pop()

    visit(ctx.tree)
    return findings


# ------------------------------------------------------------------ walking


def self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when the node is ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Yield ``.py`` files under each path, in sorted, deterministic
    order; a path that is itself a file is yielded as-is."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__"
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def logical_module(path: str) -> str:
    """Map a filesystem path to a dotted module rooted at ``repro``.

    ``src/repro/sim/engine.py`` → ``repro.sim.engine``; paths with no
    ``repro`` component fall back to the stem, so fixture files in test
    tmpdirs can still opt into zones by directory layout.
    """
    parts = list(os.path.normpath(path).split(os.sep))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[index:]
    else:
        parts = parts[-1:]
    return ".".join(parts)


# ---------------------------------------------------------------- internals


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Local name → fully qualified name, for alias resolution."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else local
                imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:
                continue  # relative imports keep their local meaning
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _collect_noqa(lines: List[str]) -> Dict[int, frozenset]:
    """Line number → suppressed rule ids (empty set = all rules)."""
    pragmas: Dict[int, frozenset] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            pragmas[lineno] = frozenset()
        else:
            pragmas[lineno] = frozenset(
                rule.strip().upper()
                for rule in rules.split(",")
                if rule.strip()
            )
    return pragmas
