"""Gate evaluation: every outcome is a structured verdict."""

import pytest

from repro import chaos
from repro.chaos import FaultRule
from repro.common.errors import ValidationError
from repro.pipeline import evaluate_gate, evaluate_gates, validate_gate_spec


def verdict_of(gate, outputs):
    return evaluate_gate(gate, outputs, stage="s")


def test_equals_pass_and_fail():
    gate = {"kind": "equals", "path": "n", "value": 3}
    passed = verdict_of(gate, {"n": 3})
    assert passed["ok"] and passed["gate"] == gate
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
    at_most = verdict_of(
        {"kind": "at_most", "path": "n", "value": 2}, {"n": 2}
    )
    assert at_most["ok"] and at_most["detail"] == "n=2 <= 2: pass"
    within = verdict_of(
        {"kind": "within", "path": "n", "value": 10, "tolerance": 0.5},
        {"n": 10.4},
    )
    assert within["ok"] and "within ±0.5 of 10" in within["detail"]
    assert not verdict_of(
        {"kind": "within", "path": "n", "value": 10, "tolerance": 0.5},
        {"n": 11},
    )["ok"]
    # The boundary passes, and tolerance 0 is a valid exact match.
    for tolerance, n, ok in ((0.5, 10.5, True), (0, 10, True), (0, 9, False)):
        gate = dict(kind="within", path="n", value=10, tolerance=tolerance)
        validate_gate_spec(gate, stage="s")
        assert verdict_of(gate, {"n": n})["ok"] is ok


def test_dotted_path_and_missing_path():
    gate = {"kind": "equals", "path": "a.b.0", "value": "x"}
    assert verdict_of(gate, {"a": {"b": ["x"]}})["ok"]
    missing = verdict_of(gate, {"a": {}})
    assert not missing["ok"] and missing["observed"] is None
    assert "no value at" in missing["detail"]
    # A list index out of range, or not an integer, mid-path is missing
    # too: the walk must not stop at the list and report it.
    for path in ("a.b.9", "a.b.x"):
        gate = {"kind": "equals", "path": path, "value": ["x"]}
        verdict = verdict_of(gate, {"a": {"b": ["x"]}})
        assert not verdict["ok"], path
        assert "no value at" in verdict["detail"], path


def test_non_numeric_operand_fails_not_crashes():
    verdict = verdict_of(
        {"kind": "at_least", "path": "n", "value": 2}, {"n": "many"}
    )
    assert not verdict["ok"]
    assert "crashed" in verdict["detail"]
    # A bool or a numeric string is not a number either, though float()
    # would take it.
    for observed in (True, "5"):
        gate = {"kind": "at_least", "path": "n", "value": 1}
        assert not verdict_of(gate, {"n": observed})["ok"], observed


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
    absent = verdict_of({"kind": "all_terminal"}, {})
    assert not absent["ok"] and absent["observed"] is None
    # Found, but not a mapping: the same verdict as absent, not a crash.
    listed = verdict_of({"kind": "all_terminal"}, {"run_status_counts": [1]})
    assert listed["detail"].startswith("outputs have no 'run_status_counts'")


def test_chaos_point_fails_the_gate():
    gate = {"kind": "equals", "path": "n", "value": 1}
    rules = [FaultRule("pipeline.gate", error="gate reviewer down")]
    with chaos.injected(seed=3, rules=rules):
        verdict = verdict_of(gate, {"n": 1})
    assert not verdict["ok"] and verdict["observed"] is None
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
    )
    assert [v["ok"] for v in verdicts] == [True, False]
    assert all(v["stage"] == "s" for v in verdicts)


@pytest.mark.parametrize(
    "gate, message",
    [
        ({"kind": "equals", "path": "n"}, "missing"),
        ({"kind": "equals", "path": "n", "value": 1, "x": 2}, "unknown keys"),
        (
            {"kind": "within", "path": "n", "value": 1, "tolerance": -1},
            "non-negative",
        ),
        ({"kind": "callable", "target": "pkg.mod:f"}, "unknown gate kind"),
        ("not-a-mapping", "mapping"),
        (
            {"kind": "within", "path": "n", "value": 1, "tolerance": True},
            "non-negative number",
        ),
        ({"kind": "at_least", "path": "n", "value": "5"}, "must be a number"),
        ({"kind": "at_most", "path": "n", "value": True}, "must be a number"),
        (
            {"kind": "within", "path": "n", "value": None, "tolerance": 1},
            "must be a number",
        ),
    ],
)
def test_validate_gate_spec_rejections(gate, message):
    with pytest.raises(ValidationError, match=message):
        validate_gate_spec(gate, stage="s")
