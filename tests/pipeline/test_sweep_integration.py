"""End-to-end pipeline over the real stage kinds (artifacts → sweep →
analyze → render), including degradation under checkpoint-store chaos."""

import json

import pytest

from repro import chaos
from repro.art import ArtifactDB, Experiment
from repro.chaos import FaultRule
from repro.common.errors import ValidationError
from repro.pipeline import run_pipeline
from repro.pipeline.manifest import StageSpec
from repro.pipeline.stages import StageContext, stage_analyze, stage_sweep
from tests.art.test_launch_share import make_experiment
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
    assert all(doc["gates_ok"] for doc in result["stages"].values())


def test_analyze_reads_a_run_without_an_outcome_as_created(db):
    """A run id with no document is a point still owed, not an error."""
    experiment = make_experiment(db)  # ferret on 1 and 8 cores
    experiment.create_runs()[0].run()
    ctx = StageContext(
        db=db,
        pipeline_id="p",
        pipeline_name="p",
        stage=StageSpec(
            name="analyze", kind="analyze", inputs=("sweep",),
            params={"group_by": ["num_cpus"]},
        ),
        inputs={"sweep": {"experiment_id": experiment.experiment_id}},
    )
    analysis = stage_analyze(ctx)
    assert analysis["status_totals"] == {"done": 1, "created": 1}
    assert analysis["groups"] == {"1": {"ok": 1}, "8": {"created": 1}}
    assert analysis["success_rate"] == 0.5


FAULTY_SWEEP = """
pipeline: boot-faulty
execution:
  workers: 2
  substrate: inline
stages:
  - name: artifacts
    kind: artifacts
    params:
      kernels: ["5.4.49"]
  - name: sweep
    kind: sweep
    inputs: [artifacts]
    params:
      cpu_types: [o3]
      memory_systems: [MI_example]
      num_cpus: [2, 4, 8]
      boot_types: [init]
    gates:
      - {kind: all_terminal}
  - name: analyze
    kind: analyze
    inputs: [sweep]
    params:
      group_by: [num_cpus]
    gates:
      - {kind: at_least, path: success_rate, value: 1.0}
"""


def test_success_rate_counts_simulation_outcomes_not_statuses(db):
    """o3 on MI_example does not boot: every run is ``done`` with a
    faulty outcome, so the analysis reads a success rate of 0 and its
    gate fails, and its groups count those outcomes."""
    result = run_pipeline(db, parse_manifest_text(FAULTY_SWEEP))
    assert result["status"] == "failed"
    analyze = result["stages"]["analyze"]
    assert not analyze["gates_ok"]
    assert [verdict["detail"] for verdict in analyze["verdicts"]] == [
        "success_rate=0.0 >= 1.0: FAIL"
    ]
    analysis = json.loads(db.download_file(analyze["outputs_blob"]))
    assert analysis["status_totals"] == {"done": 3}
    assert analysis["done_runs"] == 3
    assert analysis["groups"] == {
        "2": {"gem5_segfault": 1}, "4": {"gem5_segfault": 1},
        "8": {"timeout": 1},
    }


STUDY = """
pipeline: studies
stages:
  - name: gpu
    kind: sweep
    params: {study: gpu}
    gates:
      - {kind: equals, path: run_count, value: 58}
"""


def test_a_study_sweep_launches_that_paper_study(db):
    result = run_pipeline(db, parse_manifest_text(STUDY))
    assert result["status"] == "succeeded"
    experiment = Experiment.load(db, "studies/gpu")
    assert experiment.metadata == {
        "pipeline_id": result["pipeline_id"], "pipeline": "studies",
        "stage": "gpu",
    }


@pytest.mark.parametrize(
    "params", [{"study": "spec"}, {"study": "gpu", "fixed": {}}]
)
def test_a_study_sweep_is_one_of_the_paper_studies(db, params):
    ctx = StageContext(
        db=db, pipeline_id="p", pipeline_name="p",
        stage=StageSpec(name="sweep", kind="sweep", params=params),
    )
    with pytest.raises(
        ValidationError, match=f"'parsec', 'gpu' or none.*got {params}"
    ):
        stage_sweep(ctx)
