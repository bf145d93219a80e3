"""Acceptance: a chaos-interrupted experiment resumes exactly where it
stopped — the M-of-N contract, asserted by run_id.

A run's document is written once, with its outcome, so an interrupted
sweep leaves two kinds of point behind: those with a document (settled)
and those without (``created``, owed).  The experiment document names
every point, which is what a resume rebuilds the owed ones from.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import chaos
from repro.art import ArtifactDB, Experiment
from repro.art.run import Gem5Run
from repro.chaos import FaultRule, WorkerCrashed
from repro.cli import main
from repro.db import connect

from tests.art.test_launch_share import make_experiment
from tests.art.test_write_budget import logged

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    chaos.uninstall()


def test_interrupted_experiment_resumes_remaining_runs(monkeypatch):
    """Kill a 6-run campaign at its 4th outcome write; resume() must
    execute exactly the 3 runs still owed, and only those."""
    db = ArtifactDB()
    experiment = make_experiment(db, apps=("ferret", "vips", "dedup"))
    runs = experiment.create_runs()
    assert len(runs) == 6
    run_ids = [run.run_id for run in runs]

    # The 4th outcome write dies — simulating the launch process being
    # killed after 3 of 6 runs completed.  A crash, not a raise: a
    # raising run is recorded and the sweep goes on.
    rules = [
        FaultRule(
            "run.status",
            action="crash",
            match={"status": "done"},
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
    # fired *before* the outcome write, so the 4th run has no document:
    # it is "created", resumable along with the two never-started runs.
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
                match={"status": "done"},
                after=3,
                times=1,
            )
        ]
        with chaos.injected(seed, rules):
            with pytest.raises(WorkerCrashed):
                experiment.launch(substrate="inline")
        return [
            (db.find_run(run.run_id) or {"status": "created"})["status"]
            for run in runs
        ]

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


# ------------------------------------------------- across two processes

#: A ``boot-tests --quick`` sweep whose K-th outcome write crashes the
#: process: the injector's ``crash`` unwinds the sweep (its ``finally``
#: journals ``interrupted``), then the process dies without any further
#: cleanup, as a killed one would.
CRASH_SCRIPT = textwrap.dedent(
    """
    import os, sys
    from repro import chaos
    from repro.chaos import ChaosInjector, FaultRule, WorkerCrashed
    from repro.cli import main

    uri, k = sys.argv[1], int(sys.argv[2])
    chaos.install(ChaosInjector(
        seed=3,
        rules=[FaultRule("run.status", action="crash", after=k - 1,
                         times=1)],
    ))
    try:
        main(["boot-tests", "--quick", "--db", uri])
    except WorkerCrashed:
        os._exit(70)
    os._exit(0)
    """
)


@pytest.mark.parametrize("k", (1, 17))
def test_a_sweep_killed_at_its_kth_outcome_resumes_in_a_fresh_process(
    tmp_path, capsys, monkeypatch, runs_digest, k
):
    root = tmp_path / "db"
    uri = f"file://{root}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    crashed = subprocess.run(
        [sys.executable, "-c", CRASH_SCRIPT, f"{uri}?durability=strict",
         str(k)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert crashed.returncode == 70, crashed.stderr

    # What the dead process left: k - 1 outcomes, each one insert, and
    # an experiment that names all 48 points.
    first = logged(root, "runs")
    assert len(first) == k - 1
    assert all(
        [r["op"] for r in records] == ["insert"]
        for records in first.values()
    )
    with connect(uri) as database:
        (doc,) = database["experiments"].find()
    assert doc["status"] == "interrupted"
    assert len(doc["run_ids"]) == 48
    assert set(first) == set(doc["run_ids"][: k - 1])

    # A fresh process (here: a fresh Database) resumes the rest.
    executed = []
    original_begin = Gem5Run.begin

    def recording_begin(self, *args, **kwargs):
        executed.append(self.run_id)
        return original_begin(self, *args, **kwargs)

    monkeypatch.setattr(Gem5Run, "begin", recording_begin)
    assert main(["resume", "boot-tests", "--db", uri]) == 0
    assert executed == doc["run_ids"][k - 1:]

    # Each point's outcome was written exactly once, across both
    # processes: one insert per run id, nothing updated.
    both = logged(root, "runs")
    assert set(both) == set(doc["run_ids"])
    assert all(
        [r["op"] for r in records] == ["insert"]
        for records in both.values()
    )

    # A second resume finds nothing owed and writes nothing.
    wal = root / "engine" / "runs" / "wal.log"
    size = wal.stat().st_size
    assert main(["resume", "boot-tests", "--db", uri]) == 0
    assert "nothing to resume" in capsys.readouterr().out
    assert executed == doc["run_ids"][k - 1:]
    assert wal.stat().st_size == size

    # The same documents an uninterrupted sweep writes.
    clean = f"file://{tmp_path / 'clean'}"
    assert main(["boot-tests", "--quick", "--db", clean]) == 0
    capsys.readouterr()
    with connect(uri) as resumed, connect(clean) as uninterrupted:
        assert runs_digest(resumed) == runs_digest(uninterrupted)
        experiments = resumed["experiments"].find()
    assert [e["status"] for e in experiments] == ["finished"]
