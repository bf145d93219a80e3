"""End-to-end pipeline over the real stage kinds (artifacts → sweep →
analyze → render), including degradation under checkpoint-store chaos."""

import pytest

from repro import chaos
from repro.art import ArtifactDB
from repro.chaos import FaultRule
from repro.pipeline import run_pipeline
from tests.helpers import parse_manifest_text

MINI_SWEEP = """
pipeline: boot-mini
execution:
  workers: 2
  substrate: threads
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
