"""Substrates, caches, checkpoints and telemetry can make a sweep faster
or slower, never different.

One invariant over the configuration matrix instead of one identity
assert per feature, judged by the benchmark's own oracle
(``benchmarks/perf/inspect_sample.py::runs_digest``).  Three grids from
:mod:`repro.art.studies`: the ``--quick`` Fig 8 grid (48 runs, no
measured region), a PARSEC slice (12 runs with measured regions, one
app aborting in the simulator) and the whole Fig 9 GPU study (58 runs,
none with a boot prefix, so checkpoints change nothing there).  The
axes:

- the execution path: ``run_job`` per run, an ``@app.task`` +
  ``apply_async`` per run, ``launch`` on ``inline`` and on
  ``processes`` with two workers;
- telemetry off and on;
- checkpoints off and on (the two ``launch`` paths);
- the cache: every cell runs cold, then warm on the same database.

Within one checkpoint setting every cell leaves the reference cell's
run documents, point by point; across it, every point keeps its status
and measured time; and every warm pass adopts every run at the cold
digest.  Hash seeds and chaos with recovery are cells of their own.
"""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import chaos, telemetry
from repro.art import (
    ArtifactDB,
    CheckpointStore,
    run_job,
    run_jobs_scheduler,
)
from repro.art.run import InputResolver, boot_checkpoint
from repro.art.studies import boot_tests, gpu_regalloc_study, parsec_study
from repro.art.tasks import SUBSTRATES
from repro.chaos import FaultRule
from repro.db import connect
from repro.scheduler import SchedulerApp

from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.helpers import events_of

ROOT = Path(__file__).resolve().parents[2]
PERF = ROOT / "benchmarks" / "perf"

GRIDS = {
    "boot-tests": lambda db: boot_tests(db, quick=True),
    "parsec": lambda db: parsec_study(db, apps=("ferret", "x264")),
    "gpu": gpu_regalloc_study,
}


def _apply_async(experiment, use_checkpoints):
    run_task = SchedulerApp(name="gem5art").task(name="gem5art.run_job")(
        run_job
    )
    handles = [
        run_task.apply_async(args=(run,)) for run in experiment.create_runs()
    ]
    return [handle.get() for handle in handles]


def _launch(substrate):
    def path(experiment, use_checkpoints):
        return experiment.launch(
            workers=2, substrate=substrate, use_checkpoints=use_checkpoints
        )

    return path


PATHS = {
    "run_job": lambda experiment, _: [
        run_job(run) for run in experiment.create_runs()
    ],
    "app.task": _apply_async,
    **{substrate: _launch(substrate) for substrate in SUBSTRATES},
}

#: ``(path, telemetry, checkpoints)``; the bare paths have no planner,
#: so no boot stage.
CELLS = [
    (path, traced, use_checkpoints)
    for path in PATHS
    for traced in (False, True)
    for use_checkpoints in (False, True)
    if path in SUBSTRATES or not use_checkpoints
]

#: Per database by construction: instance ids and wall-clock stamps.
PER_DATABASE = ("_id", "artifacts", "started_at_wall", "finished_at_wall",
                "cached_from")


def points(documents):
    """``{fingerprint: document}`` without what differs per database
    and without the results' ``host_seconds``, the one field a run's
    execution may change."""
    by_fingerprint = {}
    for doc in documents:
        point = {k: v for k, v in doc.items() if k not in PER_DATABASE}
        point["results"] = dict(doc["results"])
        point["results"].pop("host_seconds")
        by_fingerprint[doc["fingerprint"]] = point
    assert len(by_fingerprint) == len(documents)
    return by_fingerprint


def run_cell(grid, path, traced, use_checkpoints, runs_digest):
    """One cell, cold then warm on the same database: ``(cold points,
    cold digest, warm points, warm digest)``."""
    db = ArtifactDB()
    runs = db.database.collection("runs")
    with telemetry.session() if traced else contextlib.nullcontext():
        PATHS[path](GRIDS[grid](db), use_checkpoints)
        cold, cold_digest = runs.find(), runs_digest(db.database)
        PATHS[path](GRIDS[grid](db), use_checkpoints)
    # A warm document is a reference: read it through its producer's.
    warm = [db.resolve_run(doc) for doc in runs.find() if doc not in cold]
    for doc in cold:
        runs.delete_one({"_id": doc["_id"]})
    return points(cold), cold_digest, points(warm), runs_digest(db.database)


@pytest.fixture(scope="module", params=GRIDS)
def matrix(request, runs_digest):
    return {
        cell: run_cell(request.param, *cell, runs_digest) for cell in CELLS
    }


def test_every_path_leaves_the_same_documents(matrix):
    """Path × telemetry, within each checkpoint setting: every cell's
    documents equal the reference cell's, point by point."""
    for use_checkpoints, reference in (
        (False, ("run_job", False, False)),
        (True, ("inline", False, True)),
    ):
        expected, digest = matrix[reference][:2]
        for cell, (cold, cold_digest, _, _) in matrix.items():
            if cell[2] == use_checkpoints:
                assert cold_digest == digest, cell
                assert cold == expected, cell


def test_checkpoints_change_no_outcome(matrix, request):
    """Restoring a boot leaves out the boot-attributed statistics by
    design, so the stats blobs differ; no status and no measured time
    may."""
    if request.node.callspec.params["matrix"] == "gpu":
        pytest.skip("GPU runs have no boot prefix to restore")

    def outcomes(cell):
        return {
            fingerprint: (
                point["status"],
                point["results"]["simulation_status"],
                point["results"]["workload_seconds"],
            )
            for fingerprint, point in matrix[cell][0].items()
        }

    for path in SUBSTRATES:
        restored = matrix[(path, False, True)][0].values()
        assert any(point["results"]["restored_boot"] for point in restored)
        assert outcomes((path, False, True)) == outcomes(
            ("run_job", False, False)
        ), path


def test_a_warm_pass_adopts_every_run(matrix):
    """The warm pass simulates nothing: each document it writes is a
    cache hit on the cold pass's, and they hash to the cold digest."""
    for cell, (cold, cold_digest, warm, warm_digest) in matrix.items():
        assert warm == {
            fingerprint: dict(point, cache_hit=True)
            for fingerprint, point in cold.items()
        }, cell
        assert warm_digest == cold_digest, cell


def test_duplicated_grid_coalesces_the_same_way_on_every_substrate(
    runs_digest,
):
    """The duplicate-fingerprint column: every point of the grid twice.
    Coalescing can make a sweep faster, never different — same digest,
    same number of adopted documents, and a coalesced count that does
    not depend on how many workers raced."""
    digests, adopted, coalesced = {}, {}, {}
    for substrate, workers in (
        ("inline", 1), ("processes", 1), ("processes", 3),
    ):
        db = ArtifactDB()
        experiment = boot_tests(db, quick=True)
        experiment.sweep(boot_type=["init", "init"])
        with telemetry.session() as session:
            summaries = experiment.launch(workers=workers, substrate=substrate)
            coalesced[(substrate, workers)] = session.metrics.counter(
                "runcache_coalesced_total"
            ).value()
        assert len(summaries) == 96
        documents = db.database.collection("runs").find()
        assert len({doc["fingerprint"] for doc in documents}) == 48
        digests[(substrate, workers)] = runs_digest(db.database)
        adopted[(substrate, workers)] = sum(
            bool(doc.get("cache_hit")) for doc in documents
        )
    assert len(set(digests.values())) == 1, digests
    assert adopted == dict.fromkeys(adopted, 48)
    # On every substrate the second of each pair is never enqueued: it
    # adopts the first's result once that has settled.
    assert coalesced == dict.fromkeys(coalesced, 48)


def test_the_full_fig8_grid_on_processes_is_the_benchmark_digest(
    runs_digest,
):
    db = ArtifactDB()
    boot_tests(db).launch(workers=2, substrate="processes")
    expected = json.loads((PERF / "expected.json").read_text())
    assert runs_digest(db.database) == expected["fig8-cold"]["digest"]


def test_hash_seeds_leave_the_same_digest(tmp_path, runs_digest):
    """``repro boot-tests --quick`` in two interpreters whose ``str``
    hashes differ: nothing in a run document may follow set or dict
    iteration order of hashed keys."""
    path = os.pathsep.join((str(ROOT / "src"), os.getenv("PYTHONPATH", "")))
    uris = {seed: f"file://{tmp_path / seed}" for seed in ("0", "1")}
    sweeps = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "boot-tests", "--quick",
             "--db", uri],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for seed, uri in uris.items()
    ]
    for sweep in sweeps:
        _, stderr = sweep.communicate(timeout=120)
        assert sweep.returncode == 0, stderr
    digests = set()
    for uri in uris.values():
        with connect(uri) as database:
            assert database.collection("runs").count() == 48
            digests.add(runs_digest(database))
    assert len(digests) == 1


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_chaos_then_resume_leaves_the_cold_digest(substrate, runs_digest):
    """One outcome write in ten raises; a chaos-free retrying resume
    then leaves the documents a clean sweep writes, and a second resume
    has nothing left to run."""
    clean = ArtifactDB()
    boot_tests(clean, quick=True).launch(workers=2, substrate=substrate)
    cold = runs_digest(clean.database)
    for seed in (1, 2, 3):
        db = ArtifactDB()
        experiment = boot_tests(db, quick=True)
        with chaos.injected(seed, [FaultRule("run.status", probability=0.1)]):
            experiment.launch(workers=2, substrate=substrate)
        assert experiment.pending_runs(retry_failures=True), seed
        experiment.resume(workers=2, retry_failures=True, substrate=substrate)
        assert runs_digest(db.database) == cold, seed
        settled = db.database.collection("runs").find()
        experiment.resume(workers=2, retry_failures=True, substrate=substrate)
        assert db.database.collection("runs").find() == settled, seed


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_a_timed_out_run_reads_as_on_a_bare_run(db, fs_artifacts, substrate):
    """Killed at its deadline or returned past it, a run's record is
    its error, with no stats blob — what a bare ``run()`` leaves
    (``test_run_tasks.py::test_run_timeout_recorded``)."""
    run = make_run(db, fs_artifacts, timeout=0.0)
    blobs = len(db.database.files)
    run_jobs_scheduler([run], worker_count=1, substrate=substrate)
    doc = db.get_run(run.run_id)
    assert doc["status"] == "timed_out"
    assert doc["results"] == {
        "error": "timed out after 0.0s", "timed_out": True,
    }
    assert len(db.database.files) == blobs


@pytest.fixture
def db():
    return ArtifactDB()


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_raising_run_is_recorded_and_the_sweep_goes_on(
    db, fs_artifacts, substrate
):
    raising = make_run(db, fs_artifacts, benchmark="not-installed")
    healthy = make_run(db, fs_artifacts)
    failed, done = run_jobs_scheduler(
        [raising, healthy], worker_count=1, substrate=substrate
    )
    assert failed["success"] is False
    assert "not-installed" in failed["error"]
    assert db.get_run(raising.run_id)["status"] == "failed"
    assert done["success"]
    assert db.get_run(healthy.run_id)["status"] == "done"


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_incompatible_checkpoint_degrades_to_full_boot(
    db, fs_artifacts, substrate
):
    """A store entry that fails ``check_compatible`` (a hand-edited or
    stale store) is a miss on every substrate: the run boots in full and
    matches a store-less run."""
    plain = make_run(db, fs_artifacts, num_cpus=1)
    plain.run(use_cache=False)
    expected = db.get_run(plain.run_id)["results"]

    # The 1-CPU prefix holds a checkpoint taken on a 2-CPU platform.
    store = CheckpointStore(db)
    donor = make_run(db, fs_artifacts, num_cpus=2)
    run = make_run(db, fs_artifacts, num_cpus=1)
    store.store(
        run.prefix,
        boot_checkpoint(donor.params, InputResolver().live(donor)),
    )

    with telemetry.session() as session:
        (summary,) = run_jobs_scheduler(
            [run],
            worker_count=1,
            substrate=substrate,
            use_cache=False,
            use_checkpoints=True,  # on the run's db: finds the entry
        )
        events = events_of(session.events, "checkpoint.incompatible")
    assert [e["attributes"]["run_id"] for e in events] == [run.run_id]
    assert summary["restored_boot"] is False
    assert summary["simulation_status"] == expected["simulation_status"]
    assert summary["stats_file_id"] == expected["stats_file_id"]
    assert db.get_run(run.run_id)["status"] == "done"


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_run_span_carries_host_seconds(db, fs_artifacts, substrate):
    run = make_run(db, fs_artifacts)
    with telemetry.session() as session:
        (summary,) = run_jobs_scheduler(
            [run], worker_count=1, substrate=substrate
        )
        (span,) = [
            s for s in session.tracer.finished_spans()
            if s["name"] == "run"
        ]
    assert span["attributes"]["host_seconds"] == summary["host_seconds"]
    assert summary["host_seconds"] > 0
