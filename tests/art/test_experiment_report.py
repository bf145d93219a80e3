"""Tests for Experiment.report() and Experiment.stack_of()."""

import pytest

from repro.art import ArtifactDB, Experiment
from repro.common.errors import StateError, ValidationError

from tests.art.test_launch_share import make_experiment, stack_artifacts


@pytest.fixture
def db():
    return ArtifactDB()


def test_report_requires_runs(db):
    with pytest.raises(StateError):
        make_experiment(db).report()


def test_stack_of_maps_every_run(db):
    experiment = make_experiment(db, apps=("ferret", "vips"))
    runs = experiment.create_runs()
    assert len(runs) == 4
    for run in runs:
        assert experiment.stack_of(run.run_id) == "ubuntu-18.04"


def test_stack_of_rejects_foreign_run_ids(db):
    experiment = make_experiment(db)
    experiment.create_runs()
    with pytest.raises(ValidationError):
        experiment.stack_of("not-a-run-of-this-experiment")


def test_report_counts_outcomes_per_stack(db):
    experiment = Experiment(db, "report-me")
    experiment.add_stack("bionic", **stack_artifacts(db, "ubuntu-18.04"))
    experiment.add_stack("focal", **stack_artifacts(db, "ubuntu-20.04"))
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(benchmark=["ferret"], num_cpus=[1, 8])
    experiment.launch(substrate="inline")

    report = experiment.report()
    assert report["experiment"] == "report-me"
    assert report["runs"] == 4
    assert set(report["by_stack"]) == {"bionic", "focal"}
    for counts in report["by_stack"].values():
        assert sum(counts.values()) == 2
        assert counts.get("ok") == 2  # simulation status, not doc status


def test_report_before_launch_counts_created(db):
    experiment = make_experiment(db)
    experiment.create_runs()
    report = experiment.report()
    assert report["by_stack"]["ubuntu-18.04"] == {"created": 2}


def test_report_and_stack_of_survive_reload(db):
    experiment = make_experiment(db, apps=("ferret",))
    runs = experiment.create_runs()
    runs[0].run()
    loaded = Experiment.load(db, "parsec-mini")
    assert loaded.stack_of(runs[0].run_id) == "ubuntu-18.04"
    report = loaded.report()
    assert report["runs"] == 2
    statuses = report["by_stack"]["ubuntu-18.04"]
    assert statuses.get("ok") == 1
    assert statuses.get("created") == 1
