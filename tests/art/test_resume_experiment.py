"""Tests for crash-resumable experiments: journaling, pending-run
accounting, and the idempotent resume path."""

import pytest

from repro.art import ArtifactDB, Experiment
from repro.art.run import Gem5Run
from repro.common.errors import NotFoundError, StateError
from repro.db import connect

from tests.art.test_input_resolver import two_stack_experiment
from tests.art.test_launch_share import make_experiment


@pytest.fixture
def db():
    return ArtifactDB()


def record_executions(monkeypatch):
    """Patch Gem5Run.begin to log which run ids actually execute."""
    executed = []
    original_begin = Gem5Run.begin

    def recording_begin(self, *args, **kwargs):
        executed.append(self.run_id)
        return original_begin(self, *args, **kwargs)

    monkeypatch.setattr(Gem5Run, "begin", recording_begin)
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
    # A retried run's document is updated in place, not inserted again.
    for run in runs[1:3]:
        assert db.runs.count({"_id": run.run_id}) == 1
        assert db.get_run(run.run_id)["status"] == "done"


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


def test_load_rebuilds_the_points_without_a_document(tmp_path):
    """Points with no outcome have no document; a reopened database
    rebuilds them from the experiment document — same run id, same
    parameters, same fingerprint — even with stacks and axes declared
    out of the order replay sorts a document's keys into."""
    uri = f"file://{tmp_path / 'db'}"
    with connect(uri) as database:
        experiment = two_stack_experiment(
            ArtifactDB(database), stacks=("old", "new")
        )
        experiment.sweep(num_cpus=[2, 1], boot_type=["systemd", "init"])
        runs = experiment.create_runs()
        runs[5].run()
        expected = [
            (run.run_id, run.fingerprint, run.params, run.kind)
            for run in runs
        ]
        stacks = [experiment.stack_of(run.run_id) for run in runs]
    assert [key for key in experiment._axes] != sorted(experiment._axes)
    with connect(uri) as database:
        loaded = Experiment.load(ArtifactDB(database), "two-stacks")
        assert [
            (run.run_id, run.fingerprint, run.params, run.kind)
            for run in loaded._runs
        ] == expected
        assert [loaded.stack_of(run.run_id) for run in loaded._runs] == (
            stacks
        )
        owed = [run.run_id for run in runs if run is not runs[5]]
        assert loaded.pending_runs() == owed
        assert loaded._runs[5].results == runs[5].results
