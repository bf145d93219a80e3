"""Concurrency rules: lock discipline for the scheduler substrate.

The scheduler's lock sites are spread over the broker, the result
backend and the process pool's reactor.  The discipline that keeps them
deadlock-free is simple but unwritten: locks are per-instance and
acquired with ``with``; nothing blocks while holding one.  These rules
write it down.

Lock attributes are inferred per class: any ``self.X = threading.Lock()
/ RLock() / Condition() / Semaphore()`` in one of its methods marks ``X``
as a lock for that class
(:attr:`~repro.analysis.engine.FileContext.lock_attrs`, the same facts
the race pass uses), in addition to the name heuristic (``*lock*``,
``*mutex*``, ``*cond*``, ``*sem*``).  Cross-lock acquisition *order* is
not checked: no single-file static rule can see it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.engine import (
    LOCK_FACTORIES,
    FileContext,
    Finding,
    Rule,
    self_attr,
)

#: Substrings that mark a name as lock-like even without inference.
LOCKISH_NAMES = ("lock", "mutex", "cond", "sem")

#: Calls that block the calling thread (checked while a lock is held).
#: ``.get()`` blocks only on queues, handled separately (dict.get is not
#: a blocking call).
BLOCKING_ATTRS = frozenset({"sleep", "join", "wait", "wait_for"})


def _attr_tail(node: ast.AST) -> Optional[str]:
    """Name of the receiver: ``self._lock`` → ``_lock``; ``x`` → ``x``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_lockish_name(name: Optional[str]) -> bool:
    if not name:
        return False
    lowered = name.lower()
    return any(mark in lowered for mark in LOCKISH_NAMES)


def _expr_token(node: ast.AST) -> str:
    """Stable token for comparing receiver expressions structurally."""
    return ast.dump(node)


class _ConcurrencyRule(Rule):
    """Shared lock recognition for the concurrency pack."""

    def _is_lock_expr(self, ctx: FileContext, node: ast.AST) -> bool:
        """Lock-like by name, or a ``self.X`` the enclosing class
        assigns a lock factory to (``ctx.lock_attrs``)."""
        if _is_lockish_name(_attr_tail(node)):
            return True
        enclosing = ctx.enclosing_class()
        return enclosing is not None and self_attr(node) in (
            ctx.lock_attrs.get(enclosing.name, ())
        )

    def _held_locks(self, ctx: FileContext) -> Dict[str, ast.AST]:
        """Receiver-token → expr for every lock held by enclosing
        ``with`` statements at the current node.

        Only ``with`` blocks inside the *innermost* enclosing function
        count: a nested ``def``'s body does not execute while the outer
        ``with`` is held, it merely sits inside it textually.
        """
        scope_start = 0
        for index, ancestor in enumerate(ctx.ancestors):
            if isinstance(
                ancestor,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                scope_start = index
        held: Dict[str, ast.AST] = {}
        for ancestor in ctx.ancestors[scope_start:]:
            if not isinstance(ancestor, ast.With):
                continue
            for item in ancestor.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    # ``with lock.acquire_timeout(...)`` style helpers.
                    expr = expr.func
                if self._is_lock_expr(ctx, expr):
                    held[_expr_token(expr)] = expr
        return held


class BareAcquireRule(_ConcurrencyRule):
    """``lock.acquire()`` as a statement: a raised exception between
    acquire and release leaks the lock forever; ``with`` cannot."""

    rule_id = "CON-BARE-ACQUIRE"
    severity = "warning"
    interests = (ast.Expr,)

    def visit(self, node: ast.Expr, ctx: FileContext) -> Iterator[Finding]:
        call = node.value
        if not isinstance(call, ast.Call):
            return
        func = call.func
        if not (
            isinstance(func, ast.Attribute) and func.attr == "acquire"
        ):
            return
        if not self._is_lock_expr(ctx, func.value):
            return
        yield self.finding(
            ctx,
            node,
            "bare .acquire() on a lock; use `with` so the release "
            "survives exceptions",
        )


class BlockingUnderLockRule(_ConcurrencyRule):
    """Blocking (or running arbitrary callbacks) while holding a lock
    turns every other thread that wants the lock into a hostage."""

    rule_id = "CON-HOLD-BLOCKING"
    severity = "warning"
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        held = self._held_locks(ctx)
        if not held:
            return
        func = node.func
        name = ctx.qualified_name(func)
        if name == "time.sleep":
            yield self.finding(
                ctx,
                node,
                "time.sleep() while holding "
                f"{self._held_names(held)}; sleep outside the lock",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        if func.attr in BLOCKING_ATTRS:
            # Waiting on the very lock you hold is the condition-variable
            # pattern (Condition.wait releases it); that is the one
            # legitimate blocking call under a lock.
            if _expr_token(receiver) in held:
                return
            # Path and string joins are pure computation, not blocking.
            if func.attr == "join" and (
                name in ("os.path.join", "posixpath.join", "ntpath.join")
                or isinstance(receiver, ast.Constant)
            ):
                return
            # self._stop.wait(t) on an Event is a sleep in disguise.
            yield self.finding(
                ctx,
                node,
                f".{func.attr}() blocks while holding "
                f"{self._held_names(held)}; release the lock first "
                "(condition-variable waits on the held lock itself "
                "are exempt)",
            )
            return
        lowered = func.attr.lower()
        tail = (_attr_tail(receiver) or "").lower()
        if lowered == "get" and "queue" in tail:
            yield self.finding(
                ctx,
                node,
                f"queue .get() blocks while holding "
                f"{self._held_names(held)}; consume outside the lock",
            )
            return
        if lowered.endswith("callback") or lowered.endswith("hook"):
            yield self.finding(
                ctx,
                node,
                f"callback {func.attr}() invoked while holding "
                f"{self._held_names(held)}; callbacks can acquire "
                "arbitrary locks — invoke after release",
            )

    @staticmethod
    def _held_names(held: Dict[str, ast.AST]) -> str:
        names = sorted(
            _attr_tail(expr) or "<lock>" for expr in held.values()
        )
        return ", ".join(names)


class LockPerCallRule(_ConcurrencyRule):
    """A lock created inside the function it guards is private to each
    call and therefore guards nothing."""

    rule_id = "CON-LOCK-PER-CALL"
    severity = "error"
    interests = (ast.With, ast.FunctionDef)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.With):
            yield from self._check_direct_with(node, ctx)
        else:
            yield from self._check_local_lock(node, ctx)

    def _check_direct_with(
        self, node: ast.With, ctx: FileContext
    ) -> Iterator[Finding]:
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Call)
                and ctx.qualified_name(expr.func) in LOCK_FACTORIES
            ):
                yield self.finding(
                    ctx,
                    item.context_expr,
                    "`with threading.Lock()` creates a fresh lock every "
                    "call — it serializes nothing; store the lock on the "
                    "instance or module",
                )

    def _check_local_lock(
        self, node: ast.FunctionDef, ctx: FileContext
    ) -> Iterator[Finding]:
        if node.name in ("__init__", "__new__"):
            return
        # Locals assigned a lock factory ...
        local_locks: Dict[str, ast.Assign] = {}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and isinstance(
                sub.value, ast.Call
            ):
                if ctx.qualified_name(sub.value.func) in LOCK_FACTORIES:
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            local_locks[target.id] = sub
        if not local_locks:
            return
        # ... that the same function then enters with ``with``.
        for sub in ast.walk(node):
            if not isinstance(sub, ast.With):
                continue
            for item in sub.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Name)
                    and expr.id in local_locks
                ):
                    assign = local_locks[expr.id]
                    yield self.finding(
                        ctx,
                        assign,
                        f"lock {expr.id!r} is created per call of "
                        f"{node.name}() and guards only this call; "
                        "hoist it to the instance or module",
                    )
                    local_locks.pop(expr.id)


CONCURRENCY_RULES = (
    BareAcquireRule,
    BlockingUnderLockRule,
    LockPerCallRule,
)
