"""``DEAD-PARAM`` — the surface census: a defaulted parameter of a
public callable that no non-test call site ever passes.

An option nobody sets is a second code path nobody runs.  PRs 15 and 17
counted such options by hand; this pass counts them on the live code
:class:`~repro.analysis.dataflow.reach.Liveness` found (the same roots:
``tests/`` never counts as a caller).

Call sites are matched to callables by *name*, like liveness, and every
doubt counts as "passed": ``f(x=1)`` or enough positional arguments pass
``x`` to every ``f``; ``C(...)``, ``cls(...)`` inside ``C`` and any
``__init__(...)`` pass to ``C.__init__`` (and to the ``__init__`` a
subclass without its own inherits); a ``*args``/``**kwargs`` call
passes everything; and a callable that escapes as a value — an
argument, an assigned/returned/default value, a table entry, a
``"pkg.mod:func"`` envelope target, anything behind a registering
decorator — is fully called.  The fix is deletion: the default becomes a literal or
a module constant (tests patch it), the code only the other values
reached goes.  A parameter the paper lists as a component's surface
carries ``# repro: noqa[DEAD-PARAM]`` and the reason on its own line.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.dataflow.callgraph import FunctionInfo
from repro.analysis.dataflow.reach import (
    _DOTTED,
    TRANSPARENT_DECORATORS,
    Liveness,
    tail,
)
from repro.analysis.engine import Finding

RULE_ID = "DEAD-PARAM"
SEVERITY = "warning"

#: Node fields that hold a value being handed on (not called, not
#: merely named as a namespace or a type).
_VALUE_FIELDS = frozenset(
    "value values elts elt args defaults kw_defaults body orelse".split()
)


class _CallSites:
    """What the live code passes, keyed by callee name."""

    def __init__(self, liveness: Liveness):
        self.keywords: Dict[str, Set[str]] = {}
        self.positional: Dict[str, int] = {}
        #: callables handed on as a value, by how they were spelled: a
        #: bare name can only be a function or class, never a method.
        self.named: Set[str] = set()
        self.attributes: Set[str] = set()
        for cls_name, nodes in liveness.scopes:
            for node in nodes:
                if isinstance(node, ast.Constant):
                    text = node.value
                    if (
                        isinstance(text, str)
                        and ":" in text
                        and _DOTTED.fullmatch(text)
                    ):
                        self.attributes.add(text.rpartition(":")[2])
                    continue
                if isinstance(node, ast.Call):
                    self._record(node, cls_name)
                    if tail(node.func) in ("isinstance", "issubclass"):
                        continue
                elif isinstance(node, ast.Attribute):
                    continue  # ``Class.method``: a namespace, no escape
                for field in _VALUE_FIELDS.intersection(node._fields):
                    children = getattr(node, field)
                    if not isinstance(children, list):
                        children = [children]
                    for child in children:
                        if isinstance(child, ast.Name):
                            self.named.add(child.id)
                        elif isinstance(child, ast.Attribute):
                            self.attributes.add(child.attr)

    def _record(self, call: ast.Call, cls_name) -> None:
        name = tail(call.func)
        if cls_name and name == "cls":
            name = cls_name
        elif cls_name and name == "__init__":
            name = f"{cls_name}.__init__"  # super().__init__(...)
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            keyword.arg is None for keyword in call.keywords
        ):
            self.attributes.add(name)
        self.keywords.setdefault(name, set()).update(
            keyword.arg for keyword in call.keywords if keyword.arg
        )
        self.positional[name] = max(
            self.positional.get(name, 0), len(call.args)
        )


def _callee_names(fn: FunctionInfo, liveness: Liveness) -> Set[str]:
    """The names a call site may know ``fn`` by: its own, or for an
    ``__init__`` every class that constructs through it and every
    subclass ``__init__`` that may ``super()`` into it."""
    if fn.name != "__init__":
        return {fn.name}
    graph = liveness.graph
    names: Set[str] = set()
    for cls in graph.classes.values():
        if cls.lookup_method(graph, "__init__") is fn:
            names.add(cls.node.name)
        if any(
            graph.classes[base].lookup_method(graph, "__init__") is fn
            for base in cls.bases
        ):
            names.add(f"{cls.node.name}.__init__")
    return names


def find_unpassed_parameters(liveness: Liveness) -> List[Finding]:
    """``DEAD-PARAM`` findings over the live public callables."""
    sites = _CallSites(liveness)
    findings: List[Finding] = []
    for qualname in sorted(liveness.live):
        fn = liveness.live[qualname]
        if not isinstance(fn, FunctionInfo):
            continue
        private = fn.name.startswith("_") and fn.name != "__init__"
        if private or (fn.cls_name or "").startswith("_"):
            continue
        decorators = {
            tail(getattr(decorator, "func", decorator))
            for decorator in fn.node.decorator_list
        }
        names = _callee_names(fn, liveness)
        escaped = sites.attributes | (
            sites.named if fn.name == "__init__" or not fn.cls_name else set()
        )
        if decorators - TRANSPARENT_DECORATORS or names & escaped:
            continue
        args = fn.node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        if fn.cls_name and "staticmethod" not in decorators:
            positional = positional[1:]
        reach = max(sites.positional.get(name, 0) for name in names)
        passed = set().union(
            *(sites.keywords.get(name, ()) for name in names),
            (arg.arg for arg in positional[:reach]),
        )
        defaulted += [
            arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for arg in defaulted:
            if arg.arg in passed or arg.arg.startswith("_"):
                continue
            findings.append(
                fn.module.finding(
                    arg,
                    RULE_ID,
                    SEVERITY,
                    f"parameter {arg.arg}= of {qualname} is passed "
                    "by no non-test caller; make its default a "
                    "constant and delete what only other values reach",
                )
            )
    return findings
