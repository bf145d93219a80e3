"""Validation gates — predicates over stage outputs, with verdicts.

A gate is the pipeline's reviewer node (the biroclick pattern from the
ROADMAP): after a stage executes (or adopts cached outputs), every gate
it declares is evaluated against the outputs document, and each
evaluation produces a structured **verdict** — gate kind, observed vs
expected values, pass/fail, and a human-readable detail line.  Verdicts
are journaled with the stage attempt, so ``repro pipeline explain`` can
replay every decision the pipeline made.

Gate kinds:

======================  ==================================================
``equals``              ``outputs[path] == value``
``at_least``            ``outputs[path] >= value`` (numeric)
``at_most``             ``outputs[path] <= value`` (numeric)
``within``              ``|outputs[path] - value| <= tolerance``
``all_terminal``        no run of a sweep stage is still created/running
``callable``            dotted-path predicate ``pkg.mod:func(outputs)``
======================  ==================================================

``path`` is a dotted path into the outputs document (``status_counts.done``,
``groups.kvm|classic.ok``); missing paths fail the gate rather than
raising, because "the stage did not even produce that output" is itself
a verdict.  The ``pipeline.gate`` chaos point can inject evaluation
faults; an injected fault is a *failed verdict* (never a crash), so the
backtracking machinery is exercisable under fault injection.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import chaos
from repro.common.errors import FaultInjectedError, ValidationError
from repro.common.targets import resolve_target

#: Gate kinds and the parameter keys each requires beyond ``kind``.
GATE_KINDS: Dict[str, Tuple[str, ...]] = {
    "equals": ("path", "value"),
    "at_least": ("path", "value"),
    "at_most": ("path", "value"),
    "within": ("path", "value", "tolerance"),
    "all_terminal": (),
    "callable": ("target",),
}

#: Run statuses that mean "still owed" for ``all_terminal``.
_NON_TERMINAL_STATUSES = ("created", "running")


def validate_gate_spec(gate: Mapping[str, Any], stage: str) -> None:
    """Reject malformed gate specs at manifest-parse time."""
    if not isinstance(gate, Mapping):
        raise ValidationError(f"stage {stage!r}: each gate must be a mapping")
    kind = gate.get("kind")
    if kind not in GATE_KINDS:
        raise ValidationError(
            f"stage {stage!r}: unknown gate kind {kind!r}; "
            f"one of {sorted(GATE_KINDS)}"
        )
    required = GATE_KINDS[kind]
    missing = [key for key in required if key not in gate]
    if missing:
        raise ValidationError(
            f"stage {stage!r}: gate {kind!r} is missing {missing}"
        )
    unknown = set(gate) - set(required) - {"kind"}
    if unknown:
        raise ValidationError(
            f"stage {stage!r}: gate {kind!r} has unknown keys: "
            f"{sorted(unknown)}"
        )
    if kind == "within":
        tolerance = gate["tolerance"]
        if not isinstance(tolerance, (int, float)) or tolerance < 0:
            raise ValidationError(
                f"stage {stage!r}: gate tolerance must be a "
                f"non-negative number (got {tolerance!r})"
            )
    if kind == "callable" and ":" not in str(gate["target"]):
        raise ValidationError(
            f"stage {stage!r}: callable gate target must be "
            f"'package.module:function' (got {gate['target']!r})"
        )


def resolve_path(outputs: Mapping[str, Any], path: str):
    """Walk a dotted path through dicts/lists; returns (found, value)."""
    current: Any = outputs
    for part in str(path).split("."):
        if isinstance(current, Mapping) and part in current:
            current = current[part]
            continue
        if isinstance(current, (list, tuple)):
            try:
                current = current[int(part)]
                continue
            except (ValueError, IndexError):
                return False, None
        else:
            return False, None
    return True, current


def evaluate_gate(
    gate: Mapping[str, Any],
    outputs: Mapping[str, Any],
    stage: str,
    attempt: int,
) -> Dict[str, Any]:
    """Evaluate one gate; always returns a verdict, never raises.

    An injected ``pipeline.gate`` fault or a crashed callable predicate
    is recorded as a failed verdict — a reviewer that cannot review has
    not approved anything.
    """
    kind = gate["kind"]
    verdict: Dict[str, Any] = {
        "gate": dict(gate),
        "stage": stage,
        "attempt": attempt,
        "ok": False,
        "observed": None,
    }
    try:
        chaos.fire("pipeline.gate", stage=stage, kind=kind)
    except FaultInjectedError as error:
        verdict["detail"] = f"fault-injected: {error}"
        return verdict
    try:
        ok, observed, detail = _evaluate(kind, gate, outputs)
    except Exception as error:  # a broken predicate is a failed review
        verdict["detail"] = f"gate evaluation crashed: {error}"
        return verdict
    verdict["ok"] = bool(ok)
    verdict["observed"] = observed
    verdict["detail"] = detail
    return verdict


def evaluate_gates(
    gates,
    outputs: Mapping[str, Any],
    stage: str,
    attempt: int,
) -> List[Dict[str, Any]]:
    """Evaluate every gate of a stage, in declaration order."""
    return [
        evaluate_gate(gate, outputs, stage=stage, attempt=attempt)
        for gate in gates
    ]


def _evaluate(kind, gate, outputs):
    if kind == "all_terminal":
        return _evaluate_all_terminal(outputs)
    if kind == "callable":
        return _evaluate_callable(gate, outputs)
    found, observed = resolve_path(outputs, gate["path"])
    if not found:
        return (
            False,
            None,
            f"outputs have no value at {gate['path']!r}",
        )
    expected = gate["value"]
    if kind == "equals":
        ok = observed == expected
        relation = "=="
    elif kind == "at_least":
        ok = _numeric(observed) >= _numeric(expected)
        relation = ">="
    elif kind == "at_most":
        ok = _numeric(observed) <= _numeric(expected)
        relation = "<="
    else:  # within
        tolerance = gate["tolerance"]
        ok = abs(_numeric(observed) - _numeric(expected)) <= tolerance
        relation = f"within ±{tolerance} of"
    return (
        ok,
        observed,
        f"{gate['path']}={observed!r} {relation} {expected!r}: "
        f"{'pass' if ok else 'FAIL'}",
    )


def _numeric(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"gate needs a numeric value (got {value!r})"
        )
    return float(value)


def _evaluate_all_terminal(outputs):
    found, counts = resolve_path(outputs, "run_status_counts")
    if not found or not isinstance(counts, Mapping):
        return (
            False,
            None,
            "outputs have no 'run_status_counts' mapping "
            "(all_terminal gates a sweep stage)",
        )
    pending = {
        status: count
        for status, count in counts.items()
        if status in _NON_TERMINAL_STATUSES and count
    }
    if pending:
        return (
            False,
            dict(counts),
            f"runs still pending: {pending}",
        )
    return True, dict(counts), "every run reached a terminal status"


def _evaluate_callable(gate, outputs):
    target = str(gate["target"])
    predicate = resolve_target(target)
    result = predicate(outputs)
    if isinstance(result, Mapping):
        return (
            bool(result.get("ok")),
            result.get("observed"),
            str(result.get("detail", target)),
        )
    return bool(result), None, f"{target} -> {bool(result)}"
