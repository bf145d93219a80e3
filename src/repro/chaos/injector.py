"""Deterministic, seed-driven fault injection.

Production code declares *failure points* by calling
:func:`repro.chaos.fire` at the places where real infrastructure fails —
filestore writes, database state transitions, task execution, worker
loops.  With no injector installed the hook reads one global and
returns, and this module is never imported: :mod:`repro.chaos` resolves
the names below on first use.  With one installed (:func:`injected`),
the injector consults its rules and either does nothing, sleeps
(``delay``), raises a :class:`~repro.common.errors.FaultInjectedError`
(``raise``), or raises :class:`WorkerCrashed` (``crash`` — simulating
the death of the executing thread/process).

Determinism is the whole point: every probabilistic decision draws from a
per-rule :class:`~repro.common.rng.RngStream` derived from the injector
seed, so two runs with the same seed, rules, and call sequence inject the
same faults at the same points.  The chaos test suite relies on this to
replay a failure schedule bit-for-bit from nothing but a seed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import chaos
from repro.common.errors import FaultInjectedError, ValidationError
from repro.common.records import Frozen, Record
from repro.common.rng import RngStream

#: Actions a rule may take when it fires.
ACTIONS = ("raise", "crash", "delay")


class WorkerCrashed(BaseException):
    """A simulated worker death.

    Deliberately *not* a :class:`~repro.common.errors.ReproError` (nor even
    an :class:`Exception`): a crashed worker must not be rescued by the
    ordinary ``except Exception`` task-failure handling — it has to escape
    all the way out of the worker loop, exactly as a killed process would
    simply stop executing.
    """


class FaultRule(Frozen):
    """One injection rule: where, what, and how often.

    ``point`` matches a failure-point name exactly, or by prefix when it
    ends with ``*`` (``"filestore.*"``).  ``match`` optionally restricts
    firing to calls whose context carries the given key/value pairs
    (values compared as strings).  ``after`` skips the first N matching
    calls and ``times`` caps how often the rule fires; ``probability``
    gates each eligible call through the rule's seeded stream.
    """

    _fields = (
        "point", "action", "probability", "times", "after", "delay", "error",
        "match",
    )

    def __init__(
        self, point: str, action: str = "raise", probability: float = 1.0,
        times: Optional[int] = None, after: int = 0, delay: float = 0.0,
        error: str = "injected fault", match: Optional[Dict[str, Any]] = None,
    ):
        if action not in ACTIONS:
            raise ValidationError(
                f"unknown chaos action {action!r}; one of {ACTIONS}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValidationError("probability must be within [0, 1]")
        if after < 0 or (times is not None and times < 0):
            raise ValidationError("after/times must be non-negative")
        if delay < 0:
            raise ValidationError("delay must be non-negative")
        vars(self).update(
            point=point, action=action, probability=probability, times=times,
            after=after, delay=delay, error=error, match=match,
        )

    def matches(self, point: str, context: Dict[str, Any]) -> bool:
        if self.point.endswith("*"):
            if not point.startswith(self.point[:-1]):
                return False
        elif point != self.point:
            return False
        for key, value in (self.match or {}).items():
            if key not in context or str(context[key]) != str(value):
                return False
        return True


class _RuleState(Record):
    """Mutable per-rule bookkeeping (the rule itself stays frozen)."""

    _fields = ("rule", "stream", "seen", "fired")

    def __init__(
        self, rule: FaultRule, stream: RngStream, seen: int = 0,
        fired: int = 0,
    ):
        vars(self).update(rule=rule, stream=stream, seen=seen, fired=fired)


class ChaosInjector:
    """A seeded set of fault rules plus the log of what actually fired."""

    def __init__(self, seed: int, rules: Sequence[FaultRule] = ()):
        self.seed = seed
        self._states: List[_RuleState] = [
            _RuleState(
                rule=rule,
                stream=RngStream(seed, "chaos", str(index), rule.point),
            )
            for index, rule in enumerate(rules)
        ]
        self._log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------ firing

    def fire(self, point: str, **context: Any) -> None:
        """Evaluate every rule against this failure-point call.

        At most one fault is raised per call (the first rule that decides
        to fire); ``delay`` rules sleep and let evaluation continue.
        """
        pending: Optional[Tuple[FaultRule, Dict[str, Any]]] = None
        sleep_for = 0.0
        for state in self._states:
            rule = state.rule
            if not rule.matches(point, context):
                continue
            state.seen += 1
            if state.seen <= rule.after:
                continue
            if rule.times is not None and state.fired >= rule.times:
                continue
            if rule.probability < 1.0:
                # Draw even when the outcome is predetermined by the
                # counters above?  No — draws happen only for calls
                # that reached the probability gate, so the stream
                # position is a pure function of the eligible-call
                # sequence and replays stay aligned.
                if state.stream.random() > rule.probability:
                    continue
            state.fired += 1
            entry = {
                "point": point,
                "action": rule.action,
                "rule": rule.point,
                "context": {k: str(v) for k, v in context.items()},
            }
            self._log.append(entry)
            if rule.action == "delay":
                sleep_for += rule.delay
                continue
            pending = (rule, entry)
            break
        if sleep_for > 0:
            time.sleep(sleep_for)
        if pending is not None:
            rule, entry = pending
            if rule.action == "crash":
                raise WorkerCrashed(f"{point}: {rule.error}")
            raise FaultInjectedError(f"{point}: {rule.error}")

    # ----------------------------------------------------------- reports

    def log(self) -> List[Dict[str, Any]]:
        """Every fault fired so far, in firing order."""
        return [dict(entry) for entry in self._log]

    def report(self) -> Dict[str, Dict[str, int]]:
        """Deterministic summary: per rule, calls seen and faults fired."""
        out: Dict[str, Dict[str, int]] = {}
        for index, state in enumerate(self._states):
            key = f"{index}:{state.rule.point}:{state.rule.action}"
            out[key] = {"seen": state.seen, "fired": state.fired}
        return out


@contextmanager
# dev-tool entry: every suite CI's `chaos` job runs installs through it
def injected(  # repro: noqa[DEAD-REACH]
    seed: int, rules: Sequence[FaultRule]
) -> Iterator[ChaosInjector]:
    """Install a fresh injector for the duration of a ``with`` block."""
    injector = chaos.install(ChaosInjector(seed, rules))
    try:
        yield injector
    finally:
        chaos.uninstall()
