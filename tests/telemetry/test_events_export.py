"""Event log semantics and the three exporters."""

import json

from repro.telemetry import (
    NULL_EVENT_LOG,
    EventLog,
    Tracer,
    chrome_trace_json,
    spans_to_chrome_trace,
)
from tests.helpers import events_of


def test_event_log_sequences_and_filters():
    log = EventLog()
    log.emit("task.transition", task_id="a", dst="STARTED")
    log.emit("run.status", run_id="r1")
    log.emit("task.transition", task_id="a", dst="SUCCESS")
    records = log.records()
    assert [r["seq"] for r in records] == [1, 2, 3]
    transitions = events_of(log, "task.transition")
    assert len(transitions) == 2
    assert transitions[1]["attributes"]["dst"] == "SUCCESS"
    assert records[0]["wall_iso"].endswith("+00:00")
    assert records[0]["thread"]


def test_null_event_log_is_inert():
    NULL_EVENT_LOG.emit("anything", a=1)
    assert NULL_EVENT_LOG.records() == []


def test_chrome_trace_structure():
    tracer = Tracer()
    with tracer.span("experiment"):
        with tracer.span("run"):
            pass
    trace = spans_to_chrome_trace(tracer.finished_spans())
    events = trace["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in complete} == {"experiment", "run"}
    assert meta and meta[0]["name"] == "thread_name"
    for event in complete:
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
    # The earliest span is rebased to ts == 0.
    assert min(e["ts"] for e in complete) == 0
    # The whole thing is valid Chrome-trace JSON.
    parsed = json.loads(chrome_trace_json(tracer.finished_spans()))
    assert isinstance(parsed["traceEvents"], list)


def test_chrome_trace_skips_unfinished_spans():
    tracer = Tracer()
    with tracer.span("done"):
        pass
    open_span = tracer.span("still-open")
    open_span.__enter__()
    try:
        trace = spans_to_chrome_trace(
            tracer.finished_spans() + [open_span.to_dict()]
        )
        names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert names == {"done"}
    finally:
        open_span.__exit__(None, None, None)
