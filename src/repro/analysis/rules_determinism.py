"""Determinism rules: the choke-point contract, enforced.

A run is determined by the hashes of its inputs, and ``repro.sim`` /
``repro.chaos`` promise that two runs with the same seeds produce
bit-identical results.  A single ``time.time()``, ``uuid4()`` or
unseeded ``random.random()`` breaks either promise silently — the run
still passes, it just stops being a replay.

The contract that prevents it is structural: every raw read of the
clock, of a process-unique id or of OS entropy lives in one of three
*choke-point modules* — ``repro.common.timeutil``, ``repro.common.rng``,
``repro.common.ids`` — and everything else routes through them.  The
three source rules (``DET-WALLCLOCK``, ``DET-UUID``, ``DET-RANDOM``)
check it at the source, package-wide: a raw call anywhere but those
modules is a finding, so no nondeterministic value exists to flow
anywhere.  ``DET-ORDER`` alone is zoned: set and directory order only
matter where results are computed.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional

from repro.analysis.engine import FileContext, Finding, Rule

#: Module prefixes where iteration order is a contract violation
#: (``DET-ORDER`` only; the source rules apply everywhere).
DETERMINISTIC_ZONES = (
    "repro.sim",
    "repro.chaos",
    # The art hash paths: run/artifact identity must be a pure function
    # of content, never of the clock or the process.
    "repro.art.artifact",
    "repro.common.hashing",
)

#: The choke points themselves: the only modules allowed to touch the
#: raw primitives.
SANCTIONED_MODULES = (
    "repro.common.timeutil",
    "repro.common.rng",
    "repro.common.ids",
)


class SourceRule(Rule):
    """A raw nondeterminism source called outside the choke points; the
    subclasses are rows of a table (id, calls, what to use instead)."""

    severity = "error"
    interests = (ast.Call,)
    calls: FrozenSet[str] = frozenset()
    advice = ""

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*SANCTIONED_MODULES):
            return
        name = ctx.qualified_name(node.func)
        if self.matches(name, node):
            yield self.finding(
                ctx, node, f"{name}() outside the choke points; {self.advice}"
            )

    def matches(self, name: Optional[str], node: ast.Call) -> bool:
        return name in self.calls


class WallClockRule(SourceRule):
    """Wall-clock reads; route through ``repro.common.timeutil``."""

    rule_id = "DET-WALLCLOCK"
    calls = frozenset(
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
    advice = (
        "read the clock through repro.common.timeutil (wall_now/iso_now) "
        "so it never reaches a run's identity unseen"
    )


class UuidRule(SourceRule):
    """Process-unique id mints; route through ``repro.common.ids``."""

    rule_id = "DET-UUID"
    calls = frozenset({"uuid.uuid4", "uuid.uuid1", "uuid4", "uuid1"})
    advice = (
        "mint ids through repro.common.ids, or derive them from content "
        "(repro.common.hashing)"
    )


class GlobalRandomRule(SourceRule):
    """Unseeded randomness and OS entropy; use
    ``repro.common.rng.RngStream``."""

    rule_id = "DET-RANDOM"
    calls = frozenset(
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
            "os.urandom",
            "secrets.token_hex",
            "secrets.token_bytes",
            "secrets.token_urlsafe",
            "secrets.randbelow",
            "secrets.randbits",
            "secrets.choice",
        }
    )
    advice = (
        "derive a named repro.common.rng.RngStream (or seed random.Random "
        "from repro.common.rng.derive_seed) instead"
    )

    def matches(self, name: Optional[str], node: ast.Call) -> bool:
        # random.Random() with no arguments seeds from the OS.
        return super().matches(name, node) or (
            name == "random.Random" and not (node.args or node.keywords)
        )


class IterationOrderRule(Rule):
    """Set iteration and unsorted directory listings are the two ways
    Python sneaks hash/OS ordering into 'deterministic' loops."""

    rule_id = "DET-ORDER"
    severity = "warning"
    interests = (ast.For, ast.comprehension, ast.Call)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_module(*DETERMINISTIC_ZONES):
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
