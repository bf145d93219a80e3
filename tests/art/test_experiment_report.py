"""Tests for Experiment.records() and Experiment.report()."""

import pytest

from repro.art import ArtifactDB, Experiment
from repro.common.errors import StateError

from tests.art.test_launch_share import make_experiment, stack_artifacts


@pytest.fixture
def db():
    return ArtifactDB()


def test_report_requires_runs(db):
    with pytest.raises(StateError):
        make_experiment(db).report()


def test_records_map_every_point_to_its_stack(db):
    experiment = make_experiment(db, apps=("ferret", "vips"))
    runs = experiment.create_runs()
    records = experiment.records()
    assert [record["run_id"] for record in records] == [
        run.run_id for run in runs
    ]
    assert {record["stack"] for record in records} == {"ubuntu-18.04"}


def test_records_flatten_params_and_results(db):
    """A point without an outcome reads ``created``; a result key that
    collides with a param gets a ``result_`` prefix; ``outcome`` is the
    simulation status."""
    experiment = make_experiment(db)
    runs = experiment.create_runs()
    runs[0].run()
    runs[0].results = dict(runs[0].results, num_cpus="from results")
    done, owed = experiment.records()
    assert done["status"] == "done" and done["outcome"] == "ok"
    assert done["benchmark"] == "ferret" and done["num_cpus"] == 1
    assert done["workload_seconds"] > 0
    assert done["result_num_cpus"] == "from results"
    assert owed["status"] == owed["outcome"] == "created"
    assert "workload_seconds" not in owed


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


def test_report_and_records_survive_reload(db):
    experiment = make_experiment(db, apps=("ferret",))
    runs = experiment.create_runs()
    runs[0].run()
    loaded = Experiment.load(db, "parsec-mini")
    assert loaded.records() == experiment.records()
    report = loaded.report()
    assert report["runs"] == 2
    statuses = report["by_stack"]["ubuntu-18.04"]
    assert statuses.get("ok") == 1
    assert statuses.get("created") == 1
