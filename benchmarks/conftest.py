"""Shared fixtures for the benchmark harness.

Each ``test_fig*`` / ``test_table*`` module regenerates one table or
figure from the paper.  The three paper sweeps (480 boot tests, 60
PARSEC runs, 58 GPU runs) are one ``repro reproduce
examples/paper-full.yaml``, run once per session: its gates hold Fig 8's
counts, and each figure reads its sweep's
:meth:`~repro.art.Experiment.records`.  The ``benchmark`` fixture then
times a representative unit of each experiment so ``pytest benchmarks/
--benchmark-only`` doubles as a performance regression suite for the
simulator itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import group_by, pivot
from repro.art import ArtifactDB, Experiment
from repro.pipeline import load_manifest, run_pipeline

MANIFEST = Path(__file__).parents[1] / "examples" / "paper-full.yaml"


@pytest.fixture(scope="session")
def paper():
    """Sweep stage name (``boot``: Fig 8, ``parsec``: Figs 6/7, ``gpu``:
    Fig 9) → its experiment's records, from one pipeline run whose every
    gate passed."""
    db = ArtifactDB()
    result = run_pipeline(db, load_manifest(str(MANIFEST)))
    assert result["status"] == "succeeded", result["error"]
    sweeps = {}
    for name, stage in result["stages"].items():
        if stage["kind"] == "sweep":
            outputs = json.loads(db.download_file(stage["outputs_blob"]))
            experiment = Experiment.load(db, outputs["experiment_id"])
            sweeps[name] = experiment.records()
    return sweeps


@pytest.fixture(scope="session")
def parsec_seconds(paper):
    """Figs 6/7: ``{os: {app: {cores: workload seconds}}}``."""
    return {
        os_key: pivot(records, "benchmark", "num_cpus", "workload_seconds")
        for (os_key,), records in group_by(paper["parsec"], ["stack"]).items()
    }
