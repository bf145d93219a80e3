"""End-to-end pipeline over the real stage kinds (artifacts → sweep →
analyze → render), including degradation under checkpoint-store chaos."""

import pytest

from repro import chaos
from repro.art import ArtifactDB
from repro.chaos import FaultRule
from repro.pipeline import run_pipeline
from repro.pipeline.manifest import StageSpec
from repro.pipeline.stages import StageContext, stage_analyze
from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.helpers import parse_manifest_text

MINI_SWEEP = """
pipeline: boot-mini
execution:
  workers: 2
  substrate: inline
  use_checkpoints: true
stages:
  - name: artifacts
    kind: artifacts
    params:
      kernels: ["4.19.83"]
  - name: sweep
    kind: sweep
    inputs: [artifacts]
    params:
      cpu_types: [kvm, atomic]
      memory_systems: [classic]
      num_cpus: [1]
      boot_types: [init]
    gates:
      - {kind: all_terminal}
      - {kind: equals, path: run_count, value: 2}
  - name: analyze
    kind: analyze
    inputs: [sweep]
    params:
      group_by: [cpu_type]
    gates:
      - {kind: at_least, path: success_rate, value: 1.0}
  - name: render
    kind: render
    inputs: [analyze]
    params:
      title: "mini boot sweep"
"""


@pytest.fixture
def db():
    return ArtifactDB()


def test_full_stage_kinds_end_to_end(db):
    manifest = parse_manifest_text(MINI_SWEEP)
    result = run_pipeline(db, manifest)
    assert result["status"] == "succeeded"
    assert result["order"] == ["artifacts", "sweep", "analyze", "render"]
    assert all(
        summary["action"] == "executed"
        for summary in result["stages"].values()
    )

    # Second run against the same db re-verifies everything as cached.
    second = run_pipeline(db, manifest)
    assert second["status"] == "succeeded"
    assert all(
        summary["action"] == "cache_hit"
        for summary in second["stages"].values()
    )
    # Cache adoption preserves the fingerprints of the first run.
    for name, summary in second["stages"].items():
        assert summary["fingerprint"] == result["stages"][name]["fingerprint"]


def test_sweep_degrades_under_checkpoint_chaos(db):
    """Checkpoint-store faults must never fail the pipeline: lookups
    degrade to full boots and every gate still passes."""
    manifest = parse_manifest_text(MINI_SWEEP)
    rules = [FaultRule("checkpoint.get", error="ckpt store flaking")]
    with chaos.injected(seed=7, rules=rules):
        result = run_pipeline(db, manifest)
    assert result["status"] == "succeeded"
    gate_records = [
        event for event in result["trail"] if event["event"] == "stage"
    ]
    assert all(event["gates_ok"] for event in gate_records)


def test_analyze_reads_a_run_without_an_outcome_as_created(
    db, fs_artifacts
):
    """A run id with no document is a point still owed, not an error."""
    finished = make_run(db, fs_artifacts)
    finished.run()
    owed = make_run(db, fs_artifacts, num_cpus=2)
    ctx = StageContext(
        db=db,
        pipeline_id="p",
        pipeline_name="p",
        stage=StageSpec(
            name="analyze", kind="analyze", inputs=("sweep",),
            params={"group_by": ["num_cpus"]},
        ),
        attempt=1,
        inputs={"sweep": {"run_ids": [finished.run_id, owed.run_id]}},
    )
    analysis = stage_analyze(ctx)
    assert analysis["status_totals"] == {"done": 1, "created": 1}
    assert analysis["groups"]["1"] == {"done": 1}
    assert analysis["success_rate"] == 0.5
