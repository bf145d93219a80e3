"""Hygiene rules: failure visibility and API conventions.

A reproducibility system lives or dies on *observable* failure — a
swallowed exception is a run that silently diverged from its record.
Mutable default arguments are cross-call shared state in disguise (the
same class of bug as an unseeded global RNG).  And telemetry metric
names must follow the Prometheus conventions the exporters assume, or
archived experiments stop being comparable.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.engine import FileContext, Finding, Rule

#: Exception names whose handlers are "broad" (catch nearly everything).
BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})

_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Registry methods whose first argument is a metric name.
METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})


class SwallowedExceptionRule(Rule):
    """A broad ``except`` whose body neither raises nor calls anything
    drops the error on the floor: no log, no event, no re-raise."""

    rule_id = "HYG-SWALLOW"
    severity = "error"
    interests = (ast.ExceptHandler,)

    def visit(
        self, node: ast.ExceptHandler, ctx: FileContext
    ) -> Iterator[Finding]:
        if not self._is_broad(node, ctx):
            return
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Raise, ast.Call, ast.Return)):
                    return
        caught = self._caught_name(node, ctx) or "everything"
        yield self.finding(
            ctx,
            node,
            f"except {caught} swallows the error: no raise, no log, no "
            "structured record; emit a telemetry event or re-raise",
        )

    @staticmethod
    def _is_broad(node: ast.ExceptHandler, ctx: FileContext) -> bool:
        if node.type is None:  # bare except
            return True
        exprs = (
            node.type.elts
            if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        for expr in exprs:
            name = ctx.qualified_name(expr)
            if name and name.split(".")[-1] in BROAD_EXCEPTIONS:
                return True
        return False

    @staticmethod
    def _caught_name(
        node: ast.ExceptHandler, ctx: FileContext
    ) -> Optional[str]:
        if node.type is None:
            return None
        return ctx.qualified_name(node.type)


class MutableDefaultRule(Rule):
    """``def f(x=[])`` shares one list across every call — hidden
    global state, the hygiene twin of an unseeded RNG."""

    rule_id = "HYG-MUTABLE-DEFAULT"
    severity = "error"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if self._is_mutable(default, ctx):
                yield self.finding(
                    ctx,
                    default,
                    f"mutable default in {node.name}(): the object is "
                    "shared across calls; default to None and create "
                    "inside the body",
                )

    @staticmethod
    def _is_mutable(node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            name = ctx.qualified_name(node.func)
            return name in (
                "list",
                "dict",
                "set",
                "collections.defaultdict",
                "collections.OrderedDict",
                "collections.deque",
            )
        return False


class MetricNameRule(Rule):
    """Telemetry naming conventions, Prometheus-style: snake_case, and
    counters end in ``_total`` (the exporters and dashboards key on it)."""

    rule_id = "HYG-METRIC-NAME"
    severity = "warning"
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in METRIC_METHODS
        ):
            return
        # Only calls rooted in the metrics registry accessor:
        # get_metrics().counter(...) / registry.gauge(...) / metrics.x.
        receiver = func.value
        if not self._is_registry(receiver, ctx):
            return
        if not node.args:
            return
        name_arg = node.args[0]
        if not (
            isinstance(name_arg, ast.Constant)
            and isinstance(name_arg.value, str)
        ):
            return
        name = name_arg.value
        if not _METRIC_NAME_RE.match(name):
            yield self.finding(
                ctx,
                name_arg,
                f"metric name {name!r} is not snake_case "
                "([a-z][a-z0-9_]*)",
            )
        elif func.attr == "counter" and not name.endswith("_total"):
            yield self.finding(
                ctx,
                name_arg,
                f"counter {name!r} must end with '_total' "
                "(Prometheus counter convention)",
            )
        elif func.attr != "counter" and name.endswith("_total"):
            yield self.finding(
                ctx,
                name_arg,
                f"{func.attr} {name!r} ends with '_total', which is "
                "reserved for counters",
            )

    @staticmethod
    def _is_registry(receiver: ast.AST, ctx: FileContext) -> bool:
        if isinstance(receiver, ast.Call):
            name = ctx.qualified_name(receiver.func)
            return name is not None and name.endswith("get_metrics")
        if isinstance(receiver, (ast.Name, ast.Attribute)):
            tail = (
                receiver.id
                if isinstance(receiver, ast.Name)
                else receiver.attr
            )
            return "metric" in tail.lower() or "registry" in tail.lower()
        return False


HYGIENE_RULES = (
    SwallowedExceptionRule,
    MutableDefaultRule,
    MetricNameRule,
)
