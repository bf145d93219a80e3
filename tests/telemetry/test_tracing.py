"""Tracing: nesting, activation, sessions, the null twins."""

from repro import telemetry
from repro.telemetry import (
    NULL_EVENT_LOG,
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    EventLog,
    MetricsRegistry,
    Tracer,
)


def test_spans_nest_implicitly_within_a_thread():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
    spans = tracer.finished_spans()
    assert [span["name"] for span in spans] == ["inner", "outer"]


def test_span_records_both_clocks_and_duration():
    tracer = Tracer()
    with tracer.span("op") as span:
        pass
    record = tracer.finished_spans()[0]
    assert record["duration"] >= 0
    assert record["end_wall"] >= record["start_wall"]
    assert record["start_wall_iso"].endswith("+00:00")
    assert span.ended


def test_activate_reparents_without_extra_span():
    """``activate`` makes an open span the implicit parent without
    entering or ending it: how ``Gem5Run.begin``'s ``run`` span parents
    the simulation's phase spans until ``finish`` ends it."""
    tracer = Tracer()
    run = tracer.span("run")
    with tracer.span("unrelated"):
        with tracer.activate(run):
            with tracer.span("phase") as phase:
                assert phase.parent_id == run.span_id
            assert not run.ended
        with tracer.span("after") as after:
            assert after.parent_id != run.span_id
    run.end()
    # No span named for the activation itself.
    assert {s["name"] for s in tracer.finished_spans()} == {
        "phase",
        "after",
        "unrelated",
        "run",
    }


def test_subtree_collects_descendants_only():
    tracer = Tracer()
    with tracer.span("a") as a:
        with tracer.span("b") as b:
            with tracer.span("c"):
                pass
    with tracer.span("unrelated"):
        pass
    names = {s["name"] for s in tracer.subtree(a.span_id)}
    assert names == {"a", "b", "c"}
    assert {s["name"] for s in tracer.subtree(b.span_id)} == {"b", "c"}


def test_exception_marks_span_and_still_finishes():
    tracer = Tracer()
    try:
        with tracer.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    record = tracer.finished_spans()[0]
    assert record["attributes"]["error"] == "RuntimeError"
    assert record["duration"] is not None


def test_null_tracer_is_inert():
    with NULL_TRACER.span("x", attributes={"a": 1}) as span:
        assert span is NULL_SPAN
        span.set_attribute("k", "v")
    with NULL_TRACER.activate(span):
        assert NULL_TRACER.current_span() is None
    assert NULL_TRACER.finished_spans() == []
    assert NULL_TRACER.subtree("anything") == []


def test_global_session_enable_disable():
    assert not telemetry.enabled()
    assert telemetry.get_tracer() is NULL_TRACER
    session = telemetry.enable()
    try:
        assert telemetry.enabled()
        assert telemetry.get_tracer() is session.tracer
        assert telemetry.get_metrics() is session.metrics
        assert telemetry.get_event_log() is session.events
    finally:
        telemetry.disable()
    assert telemetry.get_tracer() is NULL_TRACER


def test_enable_builds_the_real_classes_and_disable_restores_the_twins():
    """The real classes load with the first session; the null twins,
    which live in the package itself, come back on ``disable``."""
    session = telemetry.enable()
    try:
        assert type(telemetry.get_tracer()) is Tracer
        assert type(telemetry.get_metrics()) is MetricsRegistry
        assert type(telemetry.get_event_log()) is EventLog
        assert Tracer.__module__ == "repro.telemetry.tracing"
        assert session.tracer is telemetry.get_tracer()
    finally:
        telemetry.disable()
    assert telemetry.get_tracer() is NULL_TRACER
    assert telemetry.get_metrics() is NULL_METRICS
    assert telemetry.get_event_log() is NULL_EVENT_LOG
    assert type(NULL_TRACER).__module__ == "repro.telemetry"


def test_session_context_manager_restores_previous_state():
    with telemetry.session() as session:
        assert telemetry.current_session() is session
        with telemetry.session() as nested:
            assert telemetry.current_session() is nested
        assert telemetry.current_session() is session
    assert telemetry.current_session() is None


def test_session_snapshot_bundles_all_three():
    with telemetry.session() as session:
        with session.tracer.span("op"):
            pass
        session.metrics.counter("c").inc()
        session.events.emit("e", detail=1)
        snap = session.snapshot()
    assert len(snap["spans"]) == 1
    assert snap["metrics"][0]["name"] == "c"
    assert snap["events"][0]["kind"] == "e"
    assert snap["version"] == 1
