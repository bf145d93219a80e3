"""Tests for crash-resumable experiments: journaling, pending-run
accounting, and the idempotent resume path."""

import pytest

from repro.art import ArtifactDB, Experiment
from repro.art.run import Gem5Run
from repro.common.errors import NotFoundError, StateError

from tests.art.test_launch_share import make_experiment


@pytest.fixture
def db():
    return ArtifactDB()


def record_executions(monkeypatch):
    """Patch Gem5Run.run to log which run ids actually execute."""
    executed = []
    original_run = Gem5Run.run

    def recording_run(self, *args, **kwargs):
        executed.append(self.run_id)
        return original_run(self, *args, **kwargs)

    monkeypatch.setattr(Gem5Run, "run", recording_run)
    return executed


def test_resume_executes_exactly_the_missing_runs(db, monkeypatch):
    experiment = make_experiment(db, apps=("ferret", "vips", "dedup"))
    runs = experiment.create_runs()
    assert len(runs) == 6
    # Simulate a campaign interrupted after 3 of 6 runs.
    for run in runs[:3]:
        run.run()

    loaded = Experiment.load(db, "parsec-mini")
    expected = [run.run_id for run in runs[3:]]
    assert loaded.pending_runs() == expected

    executed = record_executions(monkeypatch)
    summaries = loaded.resume(substrate="inline")
    assert executed == expected  # exactly M - N runs, in creation order
    assert loaded.pending_runs() == []
    # Summaries still cover every run, finished or resumed.
    assert len(summaries) == 6
    assert all(s["success"] for s in summaries)
    doc = db.database.collection("experiments").find_one(
        {"name": "parsec-mini"}
    )
    assert doc["status"] == "finished"


def test_resume_of_finished_experiment_executes_nothing(db, monkeypatch):
    experiment = make_experiment(db)
    experiment.launch(substrate="inline")
    loaded = Experiment.load(db, "parsec-mini")
    executed = record_executions(monkeypatch)
    summaries = loaded.resume(substrate="inline")
    assert executed == []
    assert len(summaries) == 2


def test_resume_is_idempotent_across_repeats(db, monkeypatch):
    experiment = make_experiment(db)
    runs = experiment.create_runs()
    runs[0].run()
    loaded = Experiment.load(db, "parsec-mini")
    executed = record_executions(monkeypatch)
    loaded.resume(substrate="inline")
    loaded.resume(substrate="inline")
    assert executed == [runs[1].run_id]  # second resume found nothing


def test_retry_failures_requeues_failed_and_timed_out_runs(db, monkeypatch):
    experiment = make_experiment(db, apps=("ferret", "vips"))
    runs = experiment.create_runs()
    for run in runs:
        run.run()
    # Forge one failed and one timed-out run behind the object's back.
    db.update_run(runs[1].run_id, {"$set": {"status": "failed"}})
    db.update_run(runs[2].run_id, {"$set": {"status": "timed_out"}})

    loaded = Experiment.load(db, "parsec-mini")
    assert loaded.pending_runs() == []
    assert loaded.pending_runs(retry_failures=True) == [
        runs[1].run_id,
        runs[2].run_id,
    ]
    executed = record_executions(monkeypatch)
    loaded.resume(substrate="inline", retry_failures=True)
    assert executed == [runs[1].run_id, runs[2].run_id]
    assert loaded.pending_runs(retry_failures=True) == []


def test_launch_resume_flag_skips_done_runs(db, monkeypatch):
    experiment = make_experiment(db)
    runs = experiment.create_runs()
    runs[0].run()
    executed = record_executions(monkeypatch)
    experiment.resume(substrate="inline")
    assert executed == [runs[1].run_id]


def test_loaded_experiments_are_frozen(db):
    experiment = make_experiment(db)
    experiment.create_runs()
    loaded = Experiment.load(db, "parsec-mini")
    with pytest.raises(StateError, match="frozen"):
        loaded.add_stack("another")
    with pytest.raises(StateError):
        loaded.create_runs()


def test_load_by_id_and_unknown_experiment(db):
    experiment = make_experiment(db)
    experiment.create_runs()
    by_id = Experiment.load(db, experiment.experiment_id)
    assert by_id.name == "parsec-mini"
    assert len(by_id.pending_runs()) == 2
    with pytest.raises(NotFoundError):
        Experiment.load(db, "no-such-experiment")


def test_resume_without_runs_is_an_error(db):
    with pytest.raises(StateError, match="resume"):
        Experiment(db, "empty").resume()


def test_launch_journals_lifecycle_status(db):
    experiment = make_experiment(db)
    experiment.launch(substrate="inline")
    doc = db.database.collection("experiments").find_one(
        {"name": "parsec-mini"}
    )
    assert doc["status"] == "finished"
    assert doc["status_at_wall"]
    assert doc["substrate"] == "inline"
