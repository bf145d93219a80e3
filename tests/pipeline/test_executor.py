"""Executor behavior: cache hits, invalidation cascade, gate failures,
failure journaling — the reproduce tentpole's decision machinery."""

import pytest

from repro import chaos, telemetry
from repro.art import ArtifactDB
from repro.chaos import FaultRule
from repro.pipeline import PipelineJournal, run_pipeline
from tests.helpers import parse_manifest_text
from tests.pipeline import targets

CHAIN = """
pipeline: chain
stages:
  - name: a
    kind: python
    params: {target: "tests.pipeline.targets:emit", value: 1}
  - name: b
    kind: python
    inputs: [a]
    params: {target: "tests.pipeline.targets:add_inputs"}
  - name: c
    kind: python
    inputs: [b]
    params: {target: "tests.pipeline.targets:add_inputs"}
"""


@pytest.fixture
def db():
    return ArtifactDB()


@pytest.fixture(autouse=True)
def _reset_targets():
    targets.reset()
    yield
    targets.reset()


def actions_of(result):
    return {
        name: summary["action"]
        for name, summary in result["stages"].items()
    }


def test_cold_run_executes_everything(db):
    result = run_pipeline(db, parse_manifest_text(CHAIN))
    assert result["status"] == "succeeded"
    assert actions_of(result) == {
        "a": "executed", "b": "executed", "c": "executed",
    }
    assert targets.CALLS == ["a", "b", "c"]


def test_second_run_is_all_cache_hits(db):
    manifest = parse_manifest_text(CHAIN)
    run_pipeline(db, manifest)
    targets.reset()
    result = run_pipeline(db, manifest)
    assert result["status"] == "succeeded"
    assert actions_of(result) == {
        "a": "cache_hit", "b": "cache_hit", "c": "cache_hit",
    }
    assert targets.CALLS == []
    assert result["counts"] == {
        "executed": 0, "cache_hits": 3, "gate_failures": 0,
    }


def test_changed_param_reexecutes_exactly_the_dependents(db):
    run_pipeline(db, parse_manifest_text(CHAIN))
    targets.reset()
    # Change b's params: a must stay cached; b and c re-execute.
    changed = parse_manifest_text(
        CHAIN.replace(
            'inputs: [a]\n    params: {target: '
            '"tests.pipeline.targets:add_inputs"}',
            'inputs: [a]\n    params: {target: '
            '"tests.pipeline.targets:add_inputs", salt: 1}',
        )
    )
    assert changed.stage("b").params["salt"] == 1
    result = run_pipeline(db, changed)
    assert result["status"] == "succeeded"
    assert actions_of(result) == {
        "a": "cache_hit", "b": "executed", "c": "executed",
    }
    assert targets.CALLS == ["b", "c"]
    # The acceptance criterion asserts this via the stage journal:
    journal = PipelineJournal(db)
    journaled = {
        doc["stage"]: doc["action"]
        for doc in journal.stages_of(result["pipeline_id"])
    }
    assert journaled == {
        "a": "cache_hit", "b": "executed", "c": "executed",
    }


def test_early_cutoff_when_outputs_are_unchanged(db):
    # A param change that does NOT alter a stage's outputs re-executes
    # that stage only: downstream fingerprints key on the *output
    # digest*, which is unchanged, so dependents stay cached.
    run_pipeline(db, parse_manifest_text(CHAIN))
    targets.reset()
    changed = parse_manifest_text(
        CHAIN.replace(
            'inputs: [a]\n    params: {target: '
            '"tests.pipeline.targets:add_inputs"}',
            'inputs: [a]\n    params: {target: '
            '"tests.pipeline.targets:add_inputs", salt: 0}',
        )
    )
    result = run_pipeline(db, changed)
    assert actions_of(result) == {
        "a": "cache_hit", "b": "executed", "c": "cache_hit",
    }
    assert targets.CALLS == ["b"]


def test_gate_failure_without_on_fail_fails_immediately(db):
    manifest = parse_manifest_text(
        """
pipeline: strict
stages:
  - name: make
    kind: python
    params: {target: "tests.pipeline.targets:emit", value: 1}
    gates:
      - {kind: equals, path: value, value: 2}
"""
    )
    result = run_pipeline(db, manifest)
    assert result["status"] == "failed"
    assert "failed its gates: value=1 == 2: FAIL" in result["error"]
    assert result["counts"] == {
        "executed": 1, "cache_hits": 0, "gate_failures": 1,
    }
    (doc,) = PipelineJournal(db).stages_of(result["pipeline_id"])
    assert (doc["action"], doc["gates_ok"], doc["error"]) == (
        "executed", False, None,
    )


def test_failed_attempt_is_never_a_cache_hit(db):
    manifest = parse_manifest_text(
        """
pipeline: never-cache-failure
stages:
  - name: make
    kind: python
    params: {target: "tests.pipeline.targets:emit", value: 0}
    gates:
      - {kind: at_least, path: value, value: 99}
"""
    )
    assert run_pipeline(db, manifest)["status"] == "failed"
    targets.reset()
    second = run_pipeline(db, manifest)
    assert second["status"] == "failed"
    # The gate-failed record must not be adopted: the stage re-executes.
    assert targets.CALLS == ["make"]
    assert second["stages"]["make"]["action"] == "executed"


def test_stage_crash_is_journaled_and_fails_the_pipeline(db):
    manifest = parse_manifest_text(
        """
pipeline: crashy
stages:
  - name: ok
    kind: python
    params: {target: "tests.pipeline.targets:emit", value: 1}
  - name: boom
    kind: python
    inputs: [ok]
    params: {target: "tests.pipeline.targets:explode"}
"""
    )
    result = run_pipeline(db, manifest)
    assert result["status"] == "failed"
    assert "boom" in result["error"]
    assert [
        (name, doc["action"]) for name, doc in result["stages"].items()
    ] == [("ok", "executed"), ("boom", "error")]
    journal = PipelineJournal(db)
    records = journal.stages_of(result["pipeline_id"])
    assert [(doc["stage"], doc["action"]) for doc in records] == [
        ("ok", "executed"), ("boom", "error"),
    ]
    assert "RuntimeError" in records[-1]["error"]
    assert journal.get_pipeline(result["pipeline_id"])["status"] == "failed"


def test_unarchivable_outputs_are_a_journaled_error(db):
    """Outputs that cannot be content-addressed fail their stage like a
    raise does: the run returns, and the journal says why."""
    manifest = parse_manifest_text(
        """
pipeline: opaque
stages:
  - name: ok
    kind: python
    params: {target: "tests.pipeline.targets:emit", value: 1}
  - name: opaque
    kind: python
    inputs: [ok]
    params: {target: "tests.pipeline.targets:unserializable"}
"""
    )
    result = run_pipeline(db, manifest)
    assert result["status"] == "failed"
    assert result["error"].startswith("TypeError")
    assert result["counts"] == {
        "executed": 1, "cache_hits": 0, "gate_failures": 0,
    }
    journal = PipelineJournal(db)
    records = journal.stages_of(result["pipeline_id"])
    assert [
        (doc["stage"], doc["action"], doc["outputs_blob"] is None)
        for doc in records
    ] == [("ok", "executed", False), ("opaque", "error", True)]
    assert records[-1]["error"] == result["error"]
    assert journal.get_pipeline(result["pipeline_id"])["status"] == "failed"


def test_chaos_stage_fault_is_a_journaled_error(db):
    manifest = parse_manifest_text(CHAIN)
    rules = [
        FaultRule(
            "pipeline.stage", error="stage runner died",
            match={"stage": "b"},
        )
    ]
    with chaos.injected(seed=11, rules=rules):
        result = run_pipeline(db, manifest)
    assert result["status"] == "failed"
    assert "stage runner died" in result["error"]
    # a completed and is reusable: the retry (no fault) hits its cache.
    targets.reset()
    second = run_pipeline(db, manifest)
    assert second["status"] == "succeeded"
    assert second["stages"]["a"]["action"] == "cache_hit"
    assert targets.CALLS == ["b", "c"]


def test_use_cache_false_forces_execution(db):
    manifest = parse_manifest_text(CHAIN)
    run_pipeline(db, manifest)
    targets.reset()
    result = run_pipeline(db, manifest, use_cache=False)
    assert actions_of(result) == {
        "a": "executed", "b": "executed", "c": "executed",
    }
    assert len(targets.CALLS) == 3


def test_pipeline_counters_and_spans(db):
    manifest = parse_manifest_text(CHAIN)
    with telemetry.session() as session:
        run_pipeline(db, manifest)
        run_pipeline(db, manifest)
    runs = session.metrics.counter("pipeline_stage_runs_total")
    hits = session.metrics.counter("stagecache_hits_total")
    assert runs.value(pipeline="chain", stage="a") == 1
    assert hits.value(kind="python") == 3
    names = [span["name"] for span in session.tracer.finished_spans()]
    assert names.count("pipeline") == 2
    assert names.count("pipeline.stage") == 6
    stage_spans = [
        span for span in session.tracer.finished_spans()
        if span["name"] == "pipeline.stage"
    ]
    assert {s["attributes"]["action"] for s in stage_spans} == {
        "executed", "cache_hit",
    }


@pytest.mark.parametrize(
    "kind, param",
    [("sweep", "artifacts_from"), ("analyze", "source"), ("render", "source")],
)
def test_miswired_source_param_is_a_validation_error(db, kind, param):
    """A source param naming a stage that is not among the stage's
    inputs is a manifest wiring error, reported as such — it used to
    surface as ``KeyError: 'nope'``."""
    manifest = parse_manifest_text(
        f"""
pipeline: miswired
stages:
  - name: up
    kind: python
    params: {{target: "tests.pipeline.targets:emit", value: 1}}
  - name: wired
    kind: {kind}
    inputs: [up]
    params: {{{param}: nope}}
"""
    )
    result = run_pipeline(db, manifest)
    assert result["status"] == "failed"
    (error,) = [
        doc["error"]
        for doc in PipelineJournal(db).stages_of(result["pipeline_id"])
        if doc["action"] == "error"
    ]
    assert error.startswith("ValidationError")
    for needle in ("'wired'", f"{param}='nope'", "['up']"):
        assert needle in error, error


def test_sweep_stage_counts_statuses_without_reading_runs_back(
    db, monkeypatch
):
    """``run_status_counts`` comes from ``run.status``, which the
    planner's thread sets as it writes each document: a sweep stage
    searches ``runs`` only through the run cache's consults."""
    from repro.db.collection import Collection

    finds, find = [], Collection.find

    def counting(self, query=None, **kwargs):
        finds.append(self.name)
        return find(self, query, **kwargs)

    monkeypatch.setattr(Collection, "find", counting)
    result = run_pipeline(
        db,
        parse_manifest_text(
            """
pipeline: counted
execution: {workers: 2, substrate: inline}
stages:
  - name: artifacts
    kind: artifacts
    params: {kernels: ["4.19.83"]}
  - name: sweep
    kind: sweep
    inputs: [artifacts]
    params:
      cpu_types: [kvm, atomic]
      memory_systems: [classic]
      num_cpus: [1, 2]
      boot_types: [init]
    gates:
      - {kind: all_terminal}
      - {kind: equals, path: run_status_counts.done, value: 4}
"""
        ),
    )
    assert result["status"] == "succeeded"
    assert finds.count("runs") == 4  # the planner's consults: one per run
