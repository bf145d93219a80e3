"""The paper's studies are defined once, in :mod:`repro.art.studies`,
and read one way, through :meth:`repro.art.Experiment.records`.

The CLI verbs, the examples, the benchmark fixtures and the pipeline
stages start from its builders; the census below fails when one of them
registers a repository or a binary, or creates a run, itself, or when
one of them (or the reproducibility report) reads a run's document or
stack by hand.
"""

import ast
import os

import pytest

import repro
from repro.art import ArtifactDB, Artifact
from repro.art.studies import (
    RESOURCES_URL,
    boot_tests,
    gpu_regalloc_study,
    parsec_study,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))

#: Where a study used to be spelled out again.
STUDY_CALLERS = (
    "src/repro/cli/studies.py",
    "src/repro/pipeline/stages.py",
    "examples/boot_tests.py",
    "examples/parsec_study.py",
    "examples/gpu_regalloc_study.py",
    "benchmarks/conftest.py",
)

#: What only a builder calls.
BUILDER_CALLS = {
    "register_repo",
    "register_gem5_binary",
    "create_fs_run",
    "create_gpu_run",
}


#: What only :meth:`~repro.art.Experiment.records` may do for a reader.
READER_CALLS = {"stack_of", "find_run"}


def called_names(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
    }


@pytest.mark.parametrize("path", STUDY_CALLERS)
def test_no_study_is_spelled_outside_the_builders(path):
    assert sorted(called_names(path) & BUILDER_CALLS) == []


@pytest.mark.parametrize(
    "path", STUDY_CALLERS + ("src/repro/analysis/report.py",)
)
def test_every_study_is_read_through_records(path):
    assert sorted(called_names(path) & READER_CALLS) == []


@pytest.mark.parametrize(
    "build, size",
    [
        (boot_tests, 480),
        (lambda db: boot_tests(db, quick=True), 48),
        (parsec_study, 60),
        (gpu_regalloc_study, 58),
    ],
)
def test_a_builder_returns_its_points_unlaunched(build, size):
    db = ArtifactDB()
    experiment = build(db)
    assert experiment.size() == size
    assert db.database.collection("experiments").find() == []
    assert db.database.collection("runs").find() == []


@pytest.mark.parametrize("build", [boot_tests, parsec_study])
def test_gem5_resources_is_registered_with_its_own_url(build):
    """Not ``register_repo``'s default, which is gem5's own URL."""
    db = ArtifactDB()
    build(db)
    (doc,) = db.database.collection("artifacts").find(
        {"name": "gem5-resources"}
    )
    resources = Artifact.load(db, doc["_id"])
    assert resources.git["git_url"] == RESOURCES_URL
    assert resources.command == f"git clone {RESOURCES_URL}"
