"""Determinism taint: wall-clock/uuid/random values must not reach
content identity.

The run cache, the planner's fingerprint coalescing and WAL replay all
assume their inputs are *pure functions of content*.
The single-file determinism rules forbid raw nondeterminism inside the
deterministic zones; this pass asks the sharper, whole-program
question: does a nondeterministic **value** — wherever it was minted —
*flow into* one of the identity/replay surfaces?

- **Sources** — ``time.time``/``time.time_ns``, ``datetime.now`` and
  friends, ``uuid.uuid1/4``, ``os.urandom``, the module-level
  ``random.*`` draws, and ``secrets.*``.  The sanctioned choke points
  (:mod:`repro.common.timeutil`, ``rng``, ``ids``) are exempt — routing
  through them *is* the fix — and values returned by them are clean.
- **Sinks** — the :class:`~repro.art.spec.RunSpec` constructor and
  ``from_artifacts`` (anything in a spec lands in the fingerprint),
  ``canonical_dumps`` and the ``sha256_*`` content hashes, WAL
  ``append``, and the memo-store key surface shared by the run cache,
  the checkpoint store and the stage cache (``MemoStore.lookup`` /
  ``consult`` / ``store`` / ``evict`` / ``invalidate``).
- **Propagation** — through assignments, arithmetic/f-strings/
  containers, ``self.X`` attributes (flow-insensitive per class), and
  across calls via per-function summaries (tainted returns, tainted
  params reaching returns or sinks), iterated so a source→sink path of
  up to :data:`MAX_HOPS` call hops is found.

A hit is a ``DET-FLOW`` **error**: the fix is to route the value
through a choke point (or drop it from the identity payload), not to
baseline it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, self_attr
from repro.analysis.dataflow.callgraph import CallGraph, FunctionInfo
from repro.analysis.rules_determinism import (
    GLOBAL_RANDOM_CALLS,
    SANCTIONED_MODULES,
    UUID_CALLS,
    WALL_CLOCK_CALLS,
)

RULE_ID = "DET-FLOW"
SEVERITY = "error"

#: Maximum call hops a source→sink path may take and still be reported.
MAX_HOPS = 3

#: Nondeterministic value mints (resolved dotted call names): what the
#: single-file determinism rules forbid inside the zones, plus the
#: OS entropy reads.
SOURCE_CALLS = (
    WALL_CLOCK_CALLS
    | UUID_CALLS
    | GLOBAL_RANDOM_CALLS
    | {
        "os.urandom",
        "secrets.token_hex",
        "secrets.token_bytes",
        "secrets.token_urlsafe",
    }
)

#: Identity/replay sinks: dotted-name prefix -> human label.  Matched
#: against both resolved project functions and external dotted names,
#: so fixture trees that *import* the real choke points still match.
SINK_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.common.jsonutil.canonical_dumps", "canonical_dumps"),
    ("repro.common.hashing.sha256", "content hashing"),
    ("repro.art.spec.RunSpec", "RunSpec fingerprint identity"),
    ("repro.art.cache.MemoStore.lookup", "memo-store key"),
    ("repro.art.cache.MemoStore.consult", "memo-store key"),
    ("repro.art.cache.MemoStore.store", "memo-store entry"),
    ("repro.art.cache.MemoStore.evict", "memo-store key"),
    ("repro.art.cache.MemoStore.invalidate", "memo-store key"),
    ("repro.db.engine.wal.WalWriter.append", "WAL append"),
)

#: Attribute-call fallback: ``<receiver>.append(...)`` where the
#: receiver's tail name marks it as the write-ahead log.
WAL_RECEIVER_NAMES = frozenset({"wal", "_wal"})

#: Expression node -> the fields whose taints its value unions; any
#: other expression (a constant, a lambda) is clean.
_UNION_FIELDS = {
    ast.BinOp: ("left", "right"),
    ast.UnaryOp: ("operand",),
    ast.BoolOp: ("values",),
    ast.IfExp: ("test", "body", "orelse"),
    ast.JoinedStr: ("values",),
    ast.FormattedValue: ("value",),
    ast.List: ("elts",),
    ast.Tuple: ("elts",),
    ast.Set: ("elts",),
    ast.Dict: ("keys", "values"),
    ast.Subscript: ("value",),
    ast.Starred: ("value",),
    ast.Await: ("value",),
    ast.ListComp: ("generators", "elt"),
    ast.SetComp: ("generators", "elt"),
    ast.GeneratorExp: ("generators", "elt"),
    ast.DictComp: ("generators", "key", "value"),
    ast.comprehension: ("iter",),
}

#: Sources of taint for a value (dotted source-call names); empty set
#: means clean.
Taint = FrozenSet[str]
CLEAN: Taint = frozenset()


@dataclass
class Summary:
    """Interprocedural facts about one function."""

    returns: Taint = CLEAN  #: sources its return value may carry
    param_taints_return: bool = False
    #: sink reachable by passing a tainted argument, with hop count.
    param_sink: Optional[Tuple[str, int]] = None


def _sink_label(qualname: Optional[str]) -> Optional[str]:
    if qualname is None:
        return None
    for prefix, label in SINK_PREFIXES:
        if qualname == prefix or qualname.startswith(prefix + "."):
            return label
    return None


class _FunctionTaint:
    """One pass over one function body.

    ``param_mode`` runs the body with every parameter marked tainted
    (by the pseudo-source ``<param>``) to compute the function's
    summary; the real pass uses concrete source taint only.
    """

    def __init__(
        self,
        analysis: "TaintAnalysis",
        fn: FunctionInfo,
        param_mode: bool,
    ):
        self.analysis = analysis
        self.fn = fn
        self.param_mode = param_mode
        self.names: Dict[str, Taint] = {}
        self.summary = Summary()
        self.findings: List[Finding] = []
        if param_mode:
            args = fn.node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                if arg.arg != "self":
                    self.names[arg.arg] = frozenset({"<param>"})

    # ---------------------------------------------------------- statements

    def run(self) -> None:
        self._visit_body(self.fn.node.body)

    def _visit_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, taint)
        elif isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value) | self._eval(stmt.target)
            self._assign(stmt.target, taint)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint = self._eval(stmt.value)
                real = taint - {"<param>"}
                if real:
                    self.summary.returns = self.summary.returns | real
                if "<param>" in taint:
                    self.summary.param_taints_return = True
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._assign(stmt.target, self._eval(stmt.iter))
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint)
            self._visit_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._visit_body(stmt.body)
            for handler in stmt.handlers:
                self._visit_body(handler.body)
            self._visit_body(stmt.orelse)
            self._visit_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass  # nested defs analyzed as their own functions? no —
            # they are closures; skipped (documented imprecision).
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)

    def _assign(self, target: ast.AST, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            if taint:
                self.names[target.id] = (
                    self.names.get(target.id, CLEAN) | taint
                )
            else:
                self.names.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, taint)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint)
        elif isinstance(target, ast.Attribute):
            real = taint - {"<param>"}
            if (
                real
                and not self.param_mode
                and self_attr(target)
                and self.fn.cls_name is not None
            ):
                attrs = self.analysis.attr_taint.setdefault(
                    f"{self.fn.module.name}.{self.fn.cls_name}", {}
                )
                attrs[target.attr] = (
                    attrs.get(target.attr, CLEAN) | real
                )
        elif isinstance(target, ast.Subscript):
            self._eval(target.value)

    # --------------------------------------------------------- expressions

    def _eval(self, node: Optional[ast.AST]) -> Taint:
        if node is None:
            return CLEAN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Name):
            return self.names.get(node.id, CLEAN)
        if isinstance(node, ast.Attribute):
            if self_attr(node) and self.fn.cls_name is not None:
                attrs = self.analysis.attr_taint.get(
                    f"{self.fn.module.name}.{self.fn.cls_name}", {}
                )
                return attrs.get(node.attr, CLEAN)
            return self._eval(node.value)
        if isinstance(node, ast.Compare):
            # Comparisons collapse to booleans; treat as clean (a
            # deliberately accepted false-negative class).
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return CLEAN
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value)
            self._assign(node.target, taint)
            return taint
        taint = CLEAN
        for field in _UNION_FIELDS.get(type(node), ()):
            children = getattr(node, field)
            if not isinstance(children, list):
                children = [children]
            for child in children:
                taint = taint | self._eval(child)
        return taint

    def _eval_call(self, node: ast.Call) -> Taint:
        arg_taint = CLEAN
        for arg in node.args:
            arg_taint = arg_taint | self._eval(arg)
        for keyword in node.keywords:
            arg_taint = arg_taint | self._eval(keyword.value)
        target, external = self.analysis.graph.resolve_call(
            self.fn, node
        )
        qualname = target.qualname if target is not None else external
        # Source?
        if (
            external in SOURCE_CALLS
            and not self.fn.module.in_module(*SANCTIONED_MODULES)
        ):
            return arg_taint | frozenset({external})
        # Sink?
        label = _sink_label(qualname)
        if label is None and self._wal_receiver(node):
            label = "WAL append"
        if label is not None:
            self._note_sink(node, label, hops=0)
            return arg_taint
        if target is not None:
            summary = self.analysis.summaries.get(
                target.qualname, Summary()
            )
            if summary.param_sink is not None and arg_taint:
                sink, hops = summary.param_sink
                if hops + 1 <= MAX_HOPS:
                    self._note_sink(
                        node,
                        sink,
                        hops=hops + 1,
                        via=target,
                        arg_taint=arg_taint,
                    )
            result = summary.returns
            if summary.param_taints_return and arg_taint:
                result = result | arg_taint
            return result
        # Unknown external callee: tainted arguments launder through
        # (str(now), format(now, ...), now.isoformat(), ...).
        receiver_taint = CLEAN
        if isinstance(node.func, ast.Attribute):
            receiver_taint = self._eval(node.func.value)
        return arg_taint | receiver_taint

    def _wal_receiver(self, node: ast.Call) -> bool:
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr == "append"
        ):
            return False
        receiver = func.value
        tail = None
        if isinstance(receiver, ast.Attribute):
            tail = receiver.attr
        elif isinstance(receiver, ast.Name):
            tail = receiver.id
        return tail in WAL_RECEIVER_NAMES

    def _note_sink(
        self,
        node: ast.Call,
        label: str,
        hops: int,
        via: Optional[FunctionInfo] = None,
        arg_taint: Optional[Taint] = None,
    ) -> None:
        """A call that is (or reaches) a sink; check its arguments."""
        if arg_taint is None:
            arg_taint = CLEAN
            for arg in node.args:
                arg_taint = arg_taint | self._eval(arg)
            for keyword in node.keywords:
                arg_taint = arg_taint | self._eval(keyword.value)
        real = arg_taint - {"<param>"}
        if "<param>" in arg_taint and hops < MAX_HOPS:
            # Parameter reaches this sink: export in the summary so
            # callers passing tainted values get the finding.
            current = self.summary.param_sink
            if current is None or current[1] > hops:
                self.summary.param_sink = (label, hops)
        if not real or self.param_mode:
            return
        sources = ", ".join(sorted(real))
        path = (
            f" via {via.name}() ({hops} call hop"
            f"{'s' if hops != 1 else ''})"
            if via is not None
            else ""
        )
        self.findings.append(
            self.fn.module.finding(
                node,
                RULE_ID,
                SEVERITY,
                f"nondeterministic value from {sources} flows into "
                f"{label}{path}; route through the "
                "timeutil/rng/ids choke points or drop it from the "
                "identity payload",
            )
        )


class TaintAnalysis:
    """Whole-program driver: summaries to fixpoint, then findings."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.summaries: Dict[str, Summary] = {}
        #: class qualname -> {attr -> sources} (flow-insensitive).
        self.attr_taint: Dict[str, Dict[str, Taint]] = {}

    def run(self) -> List[Finding]:
        functions = [
            fn
            for fn in self.graph.iter_functions()
            if not fn.module.in_module(*SANCTIONED_MODULES)
        ]
        # Summary fixpoint: MAX_HOPS rounds bound path length.
        for _ in range(MAX_HOPS):
            changed = False
            for fn in functions:
                walker = _FunctionTaint(self, fn, param_mode=True)
                walker.run()
                # Merge the real-mode pass too so self-attribute taint
                # crosses method boundaries.
                real = _FunctionTaint(self, fn, param_mode=False)
                real.run()
                summary = Summary(
                    returns=walker.summary.returns
                    | real.summary.returns,
                    param_taints_return=walker.summary.param_taints_return,
                    param_sink=walker.summary.param_sink,
                )
                if summary != self.summaries.get(fn.qualname):
                    self.summaries[fn.qualname] = summary
                    changed = True
            if not changed:
                break
        findings: List[Finding] = []
        seen: Set[Tuple[str, int, str]] = set()
        for fn in functions:
            walker = _FunctionTaint(self, fn, param_mode=False)
            walker.run()
            for finding in walker.findings:
                key = (finding.file, finding.line, finding.message)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(finding)
        findings.sort(key=Finding.sort_key)
        return findings


def find_taint_flows(graph: CallGraph) -> List[Finding]:
    """Run the determinism taint pass; sorted ``DET-FLOW`` findings."""
    return TaintAnalysis(graph).run()
