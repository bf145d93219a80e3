"""Lockset race detection over the call graph (RacerD-style).

The concurrency rule pack checks lock *hygiene* one statement at a time;
this pass checks lock *discipline* one class at a time: for every
``self.X`` attribute of a lock-owning class, are all the places that
touch it protected by a consistent lockset?  An attribute written under
``self._mu`` in one method and read bare in another is the classic
silent race — each method looks fine in isolation, the interleaving is
the bug.

Per-method summaries record, for every ``self.<attr>`` access, the set
of instance locks syntactically held (enclosing ``with self._lock:``
blocks).  Summaries then propagate through the class's internal call
graph: a private helper only ever invoked with ``self._mu`` held
inherits ``{_mu}`` as its *entry lockset* (the intersection over all
call sites), which is how ``_pop_locked``-style helpers analyze
correctly without annotations.  Public methods are assumed callable
bare — they are the entry points.

An attribute is reported (``RACE-INCONSISTENT``) when it is written
outside construction, at least one access is lock-protected, and at
least one access holds no lock in common with the attribute's dominant
lock.  Classes that own no locks are skipped entirely (single-threaded
by construction), as are attributes of known thread-safe types
(``threading.Event``, queues) and the lock attributes themselves.

Known imprecision (documented in ``docs/analysis.md``): aliasing through
non-``self`` receivers is invisible, locks are identified per-class by
attribute name, and a private method also called from outside the class
inherits locks it may not hold there.  False *negatives* are possible;
findings are warnings, and benign ones are annotated with
``# repro: noqa[RACE-INCONSISTENT]`` plus a reason.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, self_attr
from repro.analysis.dataflow.callgraph import (
    CONSTRUCTION_METHODS,
    CallGraph,
    ClassInfo,
    FunctionInfo,
)
from repro.analysis.rules_concurrency import _is_lockish_name

RULE_ID = "RACE-INCONSISTENT"
SEVERITY = "warning"

#: Method names whose invocation mutates the receiver container.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: Inferred attribute types that synchronize internally — accesses to
#: them are not data races even when locksets disagree.
THREADSAFE_TYPE_PREFIXES = (
    "threading.",
    "queue.",
    "multiprocessing.",
)


@dataclass(frozen=True)
class Access:
    """One ``self.<attr>`` touch inside one method."""

    attr: str
    method: str  #: method qualname
    node: ast.AST
    is_write: bool
    held: FrozenSet[str]  #: syntactic lockset at the access


@dataclass(frozen=True)
class InternalCall:
    """A ``self.helper()`` call site with its syntactic lockset."""

    caller: str  #: method qualname
    callee: str  #: method qualname (same class)
    held: FrozenSet[str]


class _MethodScanner(ast.NodeVisitor):
    """Collect accesses and intra-class call sites for one method,
    tracking the stack of instance locks held by ``with`` blocks."""

    def __init__(
        self,
        graph: CallGraph,
        cls: ClassInfo,
        fn: FunctionInfo,
    ):
        self.graph = graph
        self.cls = cls
        self.fn = fn
        self.accesses: List[Access] = []
        self.calls: List[InternalCall] = []
        self._held: List[str] = []

    # --------------------------------------------------------------- locks

    def _lock_token(self, expr: ast.AST) -> Optional[str]:
        """``self._mu`` (or ``self._mu.acquire_timeout(...)``) -> token."""
        if isinstance(expr, ast.Call):
            expr = expr.func
            if isinstance(expr, ast.Attribute) and isinstance(
                expr.value, ast.Attribute
            ):
                # ``with self._mu.something():`` — treat the attribute
                # as the lock when it is one.
                expr = expr.value
        attr = self_attr(expr)
        if attr in self.cls.lock_attrs or _is_lockish_name(attr):
            return attr
        return None

    def visit_With(self, node: ast.With) -> None:
        tokens = [
            token
            for token in (
                self._lock_token(item.context_expr) for item in node.items
            )
            if token is not None
        ]
        self._held.extend(tokens)
        self.generic_visit(node)
        for _ in tokens:
            self._held.pop()

    visit_AsyncWith = visit_With

    # ------------------------------------------------------------ accesses

    def _note(self, node: ast.AST, is_write: bool) -> None:
        """Record a touch of ``self.<attr>`` — unless the node is
        something else, a lock itself, or internally synchronized."""
        attr = self_attr(node)
        if (
            attr is None
            or attr in self.cls.lock_attrs
            or _is_lockish_name(attr)
            or self.cls.attr_types.get(attr, "").startswith(
                THREADSAFE_TYPE_PREFIXES
            )
        ):
            return
        self.accesses.append(
            Access(
                attr=attr,
                method=self.fn.qualname,
                node=node,
                is_write=is_write,
                held=frozenset(self._held),
            )
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._note(node, isinstance(node.ctx, (ast.Store, ast.Del)))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # Mutating method on a self attribute counts as a write to it.
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            self._note(func.value, True)
        target = self.graph.resolve_call(self.fn, node)
        if (
            target is not None
            and target.cls_name is not None
            and self.graph.class_of(target) is self.cls
        ):
            self.calls.append(
                InternalCall(
                    caller=self.fn.qualname,
                    callee=target.qualname,
                    held=frozenset(self._held),
                )
            )
        self.generic_visit(node)

    # Subscript stores (``self._inflight[k] = v``) arrive as Attribute
    # loads on the value side; upgrade them to writes.
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._note(node.value, True)
        self.generic_visit(node)


def _entry_locksets(
    cls: ClassInfo,
    calls: List[InternalCall],
    methods: Dict[str, FunctionInfo],
) -> Dict[str, FrozenSet[str]]:
    """Locks guaranteed held on entry to each method.

    Public methods (and anything never called internally) are entry
    points: their entry lockset is empty.  A private method's entry
    lockset is the intersection over all internal call sites of
    (locks held at the site ∪ the caller's own entry lockset),
    iterated to a fixpoint.
    """
    by_callee: Dict[str, List[InternalCall]] = {}
    for call in calls:
        by_callee.setdefault(call.callee, []).append(call)
    entry: Dict[str, FrozenSet[str]] = {}
    universe = frozenset(cls.lock_attrs | {"<any>"})
    for qualname, fn in methods.items():
        is_private = fn.name.startswith("_") and not fn.name.startswith(
            "__"
        )
        if is_private and qualname in by_callee:
            entry[qualname] = universe  # refined below
        else:
            entry[qualname] = frozenset()
    for _ in range(len(methods) + 1):
        changed = False
        for qualname in entry:
            sites = by_callee.get(qualname)
            if not sites or entry[qualname] == frozenset():
                continue
            merged: Optional[FrozenSet[str]] = None
            for site in sites:
                caller_entry = entry.get(site.caller, frozenset())
                if "<any>" in caller_entry:
                    continue  # caller still at top; skip this round
                site_set = site.held | caller_entry
                merged = (
                    site_set if merged is None else merged & site_set
                )
            if merged is not None and merged != entry[qualname]:
                entry[qualname] = merged
                changed = True
        if not changed:
            break
    # Anything still unrefined (call cycles among private methods)
    # degrades to the safe empty set.
    return {
        qualname: (
            frozenset() if "<any>" in locks else locks
        )
        for qualname, locks in entry.items()
    }


def _construction_only(
    cls: ClassInfo,
    calls: List[InternalCall],
    methods: Dict[str, FunctionInfo],
) -> Set[str]:
    """Private methods reachable *only* from construction methods.

    ``__init__`` calling ``self._recover()`` runs before the instance
    can be shared, so ``_recover``'s unlocked accesses are construction,
    not racing.  Greatest fixpoint: assume every internally-called
    private method qualifies, then evict any with a caller that is
    neither a construction method nor itself construction-only.
    """
    callers_of: Dict[str, Set[str]] = {}
    for call in calls:
        callers_of.setdefault(call.callee, set()).add(call.caller)
    construction = {
        f"{cls.qualname}.{name}" for name in CONSTRUCTION_METHODS
    }
    candidates = {
        qualname
        for qualname, fn in methods.items()
        if fn.name.startswith("_")
        and not fn.name.startswith("__")
        and qualname in callers_of
    }
    changed = True
    while changed:
        changed = False
        for qualname in sorted(candidates):
            for caller in callers_of.get(qualname, set()):
                if caller in construction or caller in candidates:
                    continue
                candidates.discard(qualname)
                changed = True
                break
    return candidates


def _analyze_class(graph: CallGraph, cls: ClassInfo) -> List[Finding]:
    if not cls.lock_attrs:
        return []
    accesses: List[Access] = []
    calls: List[InternalCall] = []
    analyzed: Dict[str, FunctionInfo] = {}
    for name, fn in cls.methods.items():
        scanner = _MethodScanner(graph, cls, fn)
        scanner.visit(fn.node)
        calls.extend(scanner.calls)
        if name in CONSTRUCTION_METHODS:
            continue  # call sites matter; the accesses never race
        accesses.extend(scanner.accesses)
        analyzed[fn.qualname] = fn
    cons_only = _construction_only(cls, calls, analyzed)
    accesses = [
        access for access in accesses if access.method not in cons_only
    ]
    construction = {
        f"{cls.qualname}.{name}" for name in CONSTRUCTION_METHODS
    }
    runtime_calls = [
        call
        for call in calls
        if call.caller not in construction
        and call.caller not in cons_only
    ]
    entry = _entry_locksets(cls, runtime_calls, analyzed)
    by_attr: Dict[str, List[Tuple[Access, FrozenSet[str]]]] = {}
    for access in accesses:
        effective = access.held | entry.get(access.method, frozenset())
        by_attr.setdefault(access.attr, []).append((access, effective))
    findings: List[Finding] = []
    for attr in sorted(by_attr):
        findings.extend(_judge_attr(cls, attr, by_attr[attr]))
    return findings


def _judge_attr(
    cls: ClassInfo,
    attr: str,
    accesses: List[Tuple[Access, FrozenSet[str]]],
) -> List[Finding]:
    if not any(access.is_write for access, _ in accesses):
        return []  # read-only after construction
    guarded = [
        (access, locks) for access, locks in accesses if locks
    ]
    if not guarded:
        return []  # never lock-protected: thread-confined by intent
    common: Optional[Set[str]] = None
    for _, locks in accesses:
        common = set(locks) if common is None else common & set(locks)
    if common:
        return []  # one lock protects every access
    # Dominant lock: the one protecting the most accesses.
    counts: Dict[str, int] = {}
    for _, locks in guarded:
        for lock in locks:
            counts[lock] = counts.get(lock, 0) + 1
    dominant = sorted(
        counts, key=lambda lock: (-counts[lock], lock)
    )[0]
    guarded_writes = sorted(
        access.method.rsplit(".", 1)[-1]
        for access, locks in guarded
        if access.is_write and dominant in locks
    )
    context = (
        f"written under self.{dominant} in "
        f"{', '.join(guarded_writes[:3])}()"
        if guarded_writes
        else f"guarded by self.{dominant} elsewhere"
    )
    findings = []
    reported_methods: Set[str] = set()
    for access, locks in sorted(
        accesses,
        key=lambda pair: (
            getattr(pair[0].node, "lineno", 0),
            getattr(pair[0].node, "col_offset", 0),
        ),
    ):
        if dominant in locks:
            continue
        if access.method in reported_methods:
            continue
        reported_methods.add(access.method)
        kind = "written" if access.is_write else "read"
        findings.append(
            cls.module.finding(
                access.node,
                RULE_ID,
                SEVERITY,
                f"attribute self.{attr} of {cls.node.name} is "
                f"{context} but {kind} here without it "
                f"(method {access.method.rsplit('.', 1)[-1]}); "
                "inconsistent lockset = data race",
            )
        )
    return findings


def find_races(graph: CallGraph) -> List[Finding]:
    """Run the lockset analysis over every lock-owning project class."""
    findings: List[Finding] = []
    for qualname in sorted(graph.classes):
        findings.extend(_analyze_class(graph, graph.classes[qualname]))
    findings.sort(key=Finding.sort_key)
    return findings
