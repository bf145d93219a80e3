"""Gate evaluation: every outcome is a structured verdict."""

import pytest

from repro import chaos
from repro.chaos import FaultRule
from repro.common.errors import ValidationError
from repro.pipeline import evaluate_gate, evaluate_gates, validate_gate_spec


def verdict_of(gate, outputs):
    return evaluate_gate(gate, outputs, stage="s", attempt=1)


def test_equals_pass_and_fail():
    assert verdict_of(
        {"kind": "equals", "path": "n", "value": 3}, {"n": 3}
    )["ok"]
    failed = verdict_of(
        {"kind": "equals", "path": "n", "value": 3}, {"n": 4}
    )
    assert not failed["ok"]
    assert failed["observed"] == 4
    assert "FAIL" in failed["detail"]


def test_numeric_comparisons():
    assert verdict_of(
        {"kind": "at_least", "path": "n", "value": 2}, {"n": 2}
    )["ok"]
    assert not verdict_of(
        {"kind": "at_least", "path": "n", "value": 2}, {"n": 1.5}
    )["ok"]
    assert verdict_of(
        {"kind": "at_most", "path": "n", "value": 2}, {"n": 2}
    )["ok"]
    assert verdict_of(
        {"kind": "within", "path": "n", "value": 10, "tolerance": 0.5},
        {"n": 10.4},
    )["ok"]
    assert not verdict_of(
        {"kind": "within", "path": "n", "value": 10, "tolerance": 0.5},
        {"n": 11},
    )["ok"]


def test_dotted_path_and_missing_path():
    gate = {"kind": "equals", "path": "a.b.0", "value": "x"}
    assert verdict_of(gate, {"a": {"b": ["x"]}})["ok"]
    missing = verdict_of(gate, {"a": {}})
    assert not missing["ok"]
    assert "no value at" in missing["detail"]


def test_non_numeric_operand_fails_not_crashes():
    verdict = verdict_of(
        {"kind": "at_least", "path": "n", "value": 2}, {"n": "many"}
    )
    assert not verdict["ok"]
    assert "crashed" in verdict["detail"]


def test_all_terminal():
    assert verdict_of(
        {"kind": "all_terminal"},
        {"run_status_counts": {"done": 3, "failed": 1}},
    )["ok"]
    pending = verdict_of(
        {"kind": "all_terminal"},
        {"run_status_counts": {"done": 3, "created": 2}},
    )
    assert not pending["ok"]
    assert "pending" in pending["detail"]
    assert not verdict_of({"kind": "all_terminal"}, {})["ok"]


def test_callable_gate():
    gate = {
        "kind": "callable",
        "target": "tests.pipeline.targets:check_even",
    }
    assert verdict_of(gate, {"value": 4})["ok"]
    odd = verdict_of(gate, {"value": 3})
    assert not odd["ok"]
    assert odd["observed"] == 3


def test_callable_gate_crash_is_failed_verdict():
    verdict = verdict_of(
        {"kind": "callable", "target": "tests.pipeline.targets:missing"},
        {},
    )
    assert not verdict["ok"]
    assert "crashed" in verdict["detail"]


def test_chaos_point_fails_the_gate():
    gate = {"kind": "equals", "path": "n", "value": 1}
    rules = [FaultRule("pipeline.gate", error="gate reviewer down")]
    with chaos.injected(seed=3, rules=rules):
        verdict = verdict_of(gate, {"n": 1})
    assert not verdict["ok"]
    assert "fault-injected" in verdict["detail"]
    # Without injection the same gate passes.
    assert verdict_of(gate, {"n": 1})["ok"]


def test_evaluate_gates_preserves_order():
    verdicts = evaluate_gates(
        [
            {"kind": "equals", "path": "n", "value": 1},
            {"kind": "at_least", "path": "n", "value": 5},
        ],
        {"n": 1},
        stage="s",
        attempt=2,
    )
    assert [v["ok"] for v in verdicts] == [True, False]
    assert all(v["attempt"] == 2 for v in verdicts)


@pytest.mark.parametrize(
    "gate, message",
    [
        ({"kind": "equals", "path": "n"}, "missing"),
        ({"kind": "equals", "path": "n", "value": 1, "x": 2}, "unknown keys"),
        (
            {"kind": "within", "path": "n", "value": 1, "tolerance": -1},
            "non-negative",
        ),
        ({"kind": "callable", "target": "no_colon"}, "module:function"),
        ("not-a-mapping", "mapping"),
    ],
)
def test_validate_gate_spec_rejections(gate, message):
    with pytest.raises(ValidationError, match=message):
        validate_gate_spec(gate, stage="s")
