"""Acceptance: a chaos-interrupted experiment resumes exactly where it
stopped — the ISSUE's M-of-N contract, asserted by run_id."""

import pytest

from repro import chaos
from repro.art import ArtifactDB, Experiment
from repro.art.run import Gem5Run
from repro.chaos import FaultRule, WorkerCrashed

from tests.art.test_launch_share import make_experiment


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    chaos.uninstall()


def test_interrupted_experiment_resumes_remaining_runs(monkeypatch):
    """Kill a 6-run campaign on its 4th run; resume() must execute
    exactly the 3 runs still owed, and only those."""
    db = ArtifactDB()
    experiment = make_experiment(db, apps=("ferret", "vips", "dedup"))
    runs = experiment.create_runs()
    assert len(runs) == 6
    run_ids = [run.run_id for run in runs]

    # The 4th attempt to mark a run "running" dies — simulating the
    # launch process being killed after 3 of 6 runs completed.  A crash,
    # not a raise: a raising run is recorded and the sweep goes on.
    rules = [
        FaultRule(
            "run.status",
            action="crash",
            match={"status": "running"},
            after=3,
            times=1,
        )
    ]
    with chaos.injected(seed=31, rules=rules):
        with pytest.raises(WorkerCrashed):
            experiment.launch(substrate="inline")

    doc = db.database.collection("experiments").find_one(
        {"name": "parsec-mini"}
    )
    assert doc["status"] == "interrupted"

    # A fresh process finds the experiment in the database.  The fault
    # fired *before* the status write, so the 4th run is still
    # "created" — resumable along with the two never-started runs.
    loaded = Experiment.load(db, "parsec-mini")
    assert loaded.pending_runs() == run_ids[3:]

    executed = []
    original_begin = Gem5Run.begin

    def recording_begin(self, *args, **kwargs):
        executed.append(self.run_id)
        return original_begin(self, *args, **kwargs)

    monkeypatch.setattr(Gem5Run, "begin", recording_begin)
    summaries = loaded.resume(substrate="inline")

    assert executed == run_ids[3:]  # exactly M - N runs, by id
    assert loaded.pending_runs() == []
    assert len(summaries) == 6
    assert all(s["success"] for s in summaries)
    doc = db.database.collection("experiments").find_one(
        {"name": "parsec-mini"}
    )
    assert doc["status"] == "finished"


def test_interrupt_replays_identically_from_the_chaos_seed():
    """The interruption point itself is reproducible: same seed, same
    rules, same campaign shape -> the same runs complete."""

    def interrupted_campaign(seed):
        db = ArtifactDB()
        experiment = make_experiment(db, apps=("ferret", "vips", "dedup"))
        runs = experiment.create_runs()
        rules = [
            FaultRule(
                "run.status",
                action="crash",
                match={"status": "running"},
                after=3,
                times=1,
            )
        ]
        with chaos.injected(seed, rules):
            with pytest.raises(WorkerCrashed):
                experiment.launch(substrate="inline")
        statuses = [
            db.get_run(run.run_id)["status"] for run in runs
        ]
        return statuses

    first = interrupted_campaign(seed=77)
    second = interrupted_campaign(seed=77)
    assert first == second == ["done"] * 3 + ["created"] * 3


def test_resume_by_name_finishes_the_latest_same_named_sweep():
    """Two sweeps share a name (``repro boot-tests --db X`` twice); the
    second is interrupted.  Loading by name must find *it*, not the
    first, finished one."""
    db = ArtifactDB()
    make_experiment(db).launch(substrate="inline")

    second = make_experiment(db)
    runs = second.create_runs()
    # The second sweep adopts cached results; its second status write
    # dies, leaving one run done and one never started.
    rules = [FaultRule("run.status", action="crash", after=1, times=1)]
    with chaos.injected(seed=5, rules=rules):
        with pytest.raises(WorkerCrashed):
            second.launch(substrate="inline")

    loaded = Experiment.load(db, "parsec-mini")
    assert loaded.experiment_id == second.experiment_id
    assert loaded.pending_runs() == [runs[1].run_id]
    summaries = loaded.resume(substrate="inline")
    assert all(s["success"] for s in summaries)
    docs = db.database.collection("experiments").find(
        {"name": "parsec-mini"}
    )
    assert [doc["status"] for doc in docs] == ["finished", "finished"]
