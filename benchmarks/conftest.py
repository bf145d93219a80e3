"""Shared fixtures for the benchmark harness.

Each ``test_fig*`` / ``test_table*`` module regenerates one table or
figure from the paper.  The three paper sweeps (480 boot tests, 60
PARSEC runs, 58 GPU runs) are one ``repro reproduce
examples/paper-full.yaml``, run once per session: its gates hold every
figure's claims, and each figure renders its stage's outputs (Fig 8
its sweep's :meth:`~repro.art.Experiment.records`, Figs 6, 7 and 9 the
:mod:`repro.analysis.claims` documents).  The ``benchmark`` fixture then
times a representative unit of each experiment so ``pytest benchmarks/
--benchmark-only`` doubles as a performance regression suite for the
simulator itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.art import ArtifactDB, Experiment
from repro.pipeline import load_manifest, run_pipeline

MANIFEST = Path(__file__).parents[1] / "examples" / "paper-full.yaml"


@pytest.fixture(scope="session")
def paper():
    """Stage name → its outputs, from one pipeline run whose every gate
    passed; a sweep's outputs are its experiment's records (``boot``:
    Fig 8, ``parsec``: Figs 6/7, ``gpu``: Fig 9)."""
    db = ArtifactDB()
    result = run_pipeline(db, load_manifest(str(MANIFEST)))
    assert result["status"] == "succeeded", result["error"]
    outputs = {}
    for name, stage in result["stages"].items():
        document = json.loads(db.download_file(stage["outputs_blob"]))
        if stage["kind"] == "sweep":
            experiment = Experiment.load(db, document["experiment_id"])
            document = experiment.records()
        outputs[name] = document
    return outputs
