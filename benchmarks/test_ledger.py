"""What ``benchmarks/ledger.py`` prints is what ``history/check.py``
accepts, for any number of pairs, with ties and a metric better higher."""

import json

import pytest

from benchmarks import ledger
from benchmarks.history.check import (
    DECLARED, EXACT_UNITS, line_problems, problems,
)

PARENT = "8b9b5f8aec5409cd4204a2ca293d76be1eb67cf5"


def _runs(pairs, end_to_end, factor):
    """``run.py``'s last line for each pair: a metric reads (2 + pair)
    times ``factor(pair, unit)``."""
    return [{"correct": True, "metrics": {
        name: {"value": (2.0 + pair) * factor(pair, spec["unit"])}
        for name, spec in end_to_end.items()}} for pair in range(pairs)]


def _change(pair, unit):
    """A steady 0.95 where a metric repeats exactly; elsewhere a tie in
    the second pair and ratios that spread."""
    if unit in EXACT_UNITS:
        return 0.95
    return 1.0 if pair == 1 else 0.9 + pair / 50


@pytest.mark.parametrize("pairs", [1, 2, 5, 10])
def test_ledger_lines_pass_the_history_check(pairs, tmp_path):
    benchmark = json.loads(DECLARED.read_text())
    end_to_end = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    declared = {spec["name"]: spec for spec in
                benchmark["end_to_end"] + benchmark["per_layer"]}
    results = {
        "parent": _runs(pairs, end_to_end, lambda pair, unit: 1.0),
        "change": _runs(pairs, end_to_end, _change),
    }
    lines = ledger.history_lines(
        57, PARENT, "fig679-procs", list(range(1, pairs + 1)), results,
        [1.1] * (2 * pairs), end_to_end)
    assert [line["metric"] for line in lines] == list(end_to_end)
    for line in lines:
        assert line_problems(line, "fig679-procs", declared) == []
    cpu, ok = lines[1], lines[4]
    assert (cpu["metric"], ok["metric"]) == ("cpu_s", "ok_share")
    assert cpu["won"] == sum(ratio < 1 for ratio in cpu["ratios"])
    assert ok["won"] == sum(ratio > 1 for ratio in ok["ratios"])
    assert cpu["host_slowdown"] == 1.1
    (tmp_path / "fig679-procs.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines))
    assert problems(tmp_path) == []
