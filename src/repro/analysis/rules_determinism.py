"""Determinism rules: the seed-identical-replay contract, enforced.

``repro.sim`` and ``repro.chaos`` promise that two runs with the same
seeds produce bit-identical results, and the artifact/provenance hash
paths promise that identical inputs hash identically across machines and
years.  A single ``time.time()`` or unseeded ``random.random()`` in those
trees breaks the promise silently — the tests still pass, the replays
just stop being replays.  These rules make the promise a build failure
instead.

The *sanctioned escape hatches* are ``repro.common.timeutil`` (the one
place wall-clock access is allowed to live) and ``repro.common.rng`` /
``repro.common.ids`` (seeded streams and deterministic UUIDs); code in
the deterministic zones must route through them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule

#: Module prefixes where nondeterminism is a contract violation.
DETERMINISTIC_ZONES = (
    "repro.sim",
    "repro.chaos",
    # The art hash paths: run/artifact identity must be a pure function
    # of content, never of the clock or the process.
    "repro.art.artifact",
    "repro.common.hashing",
)

#: The sanctioned escape hatches themselves (they implement the choke
#: points, so they are allowed to touch the raw primitives).
SANCTIONED_MODULES = (
    "repro.common.timeutil",
    "repro.common.rng",
    "repro.common.ids",
)

#: Wall-clock reads that must go through repro.common.timeutil.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "datetime.now",
        "datetime.utcnow",
    }
)

#: Process-unique id mints that must go through repro.common.ids.
UUID_CALLS = frozenset({"uuid.uuid4", "uuid.uuid1", "uuid4", "uuid1"})

#: Module-level (shared, unseeded) random draws.
GLOBAL_RANDOM_CALLS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.uniform",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.gauss",
        "random.getrandbits",
        "random.randbytes",
        "random.seed",
    }
)


class _ZoneRule(Rule):
    """Shared zone gating for the determinism pack."""

    def applies(self, ctx: FileContext) -> bool:
        if ctx.in_module(*SANCTIONED_MODULES):
            return False
        return ctx.in_module(*DETERMINISTIC_ZONES)


class WallClockRule(_ZoneRule):
    """Wall-clock reads in deterministic code; route through
    ``repro.common.timeutil``."""

    rule_id = "DET-WALLCLOCK"
    severity = "error"
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if not self.applies(ctx):
            return
        name = ctx.qualified_name(node.func)
        if name in WALL_CLOCK_CALLS:
            yield self.finding(
                ctx,
                node,
                f"wall-clock read {name}() in deterministic module "
                f"{ctx.name}; use repro.common.timeutil "
                "(iso_now/wall_now) so replays stay seed-identical",
            )


class UuidRule(_ZoneRule):
    """Random UUIDs in deterministic code; derive ids from content."""

    rule_id = "DET-UUID"
    severity = "error"
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if not self.applies(ctx):
            return
        name = ctx.qualified_name(node.func)
        if name in UUID_CALLS:
            yield self.finding(
                ctx,
                node,
                f"{name}() mints a process-unique id in deterministic "
                f"module {ctx.name}; derive the id from content "
                "(repro.common.hashing) instead",
            )


class GlobalRandomRule(_ZoneRule):
    """Unseeded randomness in deterministic code; use
    ``repro.common.rng.RngStream``."""

    rule_id = "DET-RANDOM"
    severity = "error"
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if not self.applies(ctx):
            return
        name = ctx.qualified_name(node.func)
        if name in GLOBAL_RANDOM_CALLS:
            yield self.finding(
                ctx,
                node,
                f"{name}() draws from the shared unseeded generator in "
                f"deterministic module {ctx.name}; derive a named "
                "repro.common.rng.RngStream instead",
            )
            return
        # random.Random() with no arguments seeds from the OS.
        if name == "random.Random" and not node.args and not node.keywords:
            yield self.finding(
                ctx,
                node,
                "random.Random() without a seed is OS-seeded; pass a "
                "derived seed (repro.common.rng.derive_seed) or use "
                "RngStream",
            )


class IterationOrderRule(_ZoneRule):
    """Set iteration and unsorted directory listings are the two ways
    Python sneaks hash/OS ordering into 'deterministic' loops."""

    rule_id = "DET-ORDER"
    severity = "warning"
    interests = (ast.For, ast.comprehension, ast.Call)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not self.applies(ctx):
            return
        if isinstance(node, (ast.For, ast.comprehension)):
            yield from self._check_iterable(node.iter, ctx)
        elif isinstance(node, ast.Call):
            name = ctx.qualified_name(node.func)
            if name in ("os.listdir", "os.scandir") and not self._sorted(
                ctx
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() order is filesystem-dependent; wrap in "
                    "sorted() before iterating",
                )

    def _check_iterable(
        self, iterable: ast.AST, ctx: FileContext
    ) -> Iterator[Finding]:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            yield self.finding(
                ctx,
                iterable,
                "iterating a set literal: order is hash-dependent; "
                "iterate sorted(...) instead",
            )
        elif isinstance(iterable, ast.Call):
            name = ctx.qualified_name(iterable.func)
            if name in ("set", "frozenset"):
                yield self.finding(
                    ctx,
                    iterable,
                    f"iterating {name}(...): order is hash-dependent; "
                    "iterate sorted(...) instead",
                )

    def _sorted(self, ctx: FileContext) -> bool:
        """True when the immediately enclosing expression already sorts."""
        for ancestor in reversed(ctx.ancestors):
            if isinstance(ancestor, ast.Call):
                name = ctx.qualified_name(ancestor.func)
                if name in ("sorted", "min", "max", "len", "set"):
                    return True
            if isinstance(ancestor, (ast.stmt,)):
                break
        return False


DETERMINISM_RULES = (
    WallClockRule,
    UuidRule,
    GlobalRandomRule,
    IterationOrderRule,
)
