"""Tests for run objects and task execution (Figs 4 and 5)."""

import os
import time

import pytest

from repro import chaos, telemetry
from repro.art import (
    ArtifactDB,
    Experiment,
    Gem5Run,
    RunStatus,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_job,
    run_jobs_pool,
    run_jobs_scheduler,
)
from repro.common.errors import ValidationError
from repro.guest import get_kernel
from repro.packer import build
from repro.resources.templates import parsec_template
from repro.sim import Gem5Build

from tests.helpers import WEDGED_CPUS, record_writes, wedge_simulations


@pytest.fixture
def db():
    return ArtifactDB()


@pytest.fixture
def fs_artifacts(db):
    repo = register_repo(db, "gem5")
    script_repo = register_repo(
        db,
        "gem5-resources",
        url="https://gem5.googlesource.com/public/gem5-resources",
        version="c5f5c70",
    )
    binary = register_gem5_binary(db, Gem5Build(), inputs=[repo])
    kernel = register_kernel_binary(db, get_kernel("4.15.18"))
    image = build(parsec_template("ubuntu-18.04")).image
    disk = register_disk_image(db, image, inputs=[script_repo])
    return dict(
        gem5=binary,
        gem5_git=repo,
        script_git=script_repo,
        kernel=kernel,
        disk=disk,
    )


def make_run(db, a, **params):
    defaults = dict(cpu_type="timing", num_cpus=1, benchmark="ferret")
    defaults.update(params)
    return Gem5Run.create_fs_run(
        db,
        gem5_artifact=a["gem5"],
        gem5_git_artifact=a["gem5_git"],
        run_script_git_artifact=a["script_git"],
        linux_binary_artifact=a["kernel"],
        disk_image_artifact=a["disk"],
        **defaults,
    )


def test_create_fs_run_documents(db, fs_artifacts):
    run = make_run(db, fs_artifacts)
    doc = db.get_run(run.run_id)
    assert doc["status"] == "created"
    assert doc["kind"] == "fs"
    assert doc["artifacts"]["gem5"] == fs_artifacts["gem5"].id
    assert doc["params"]["benchmark"] == "ferret"


def test_run_executes_and_archives(db, fs_artifacts):
    run = make_run(db, fs_artifacts)
    summary = run_job(run)
    assert summary["success"]
    assert summary["simulation_status"] == "ok"
    assert summary["workload_seconds"] > 0
    assert run.status is RunStatus.DONE
    doc = db.get_run(run.run_id)
    assert doc["status"] == "done"
    assert doc["results"]["sim_seconds"] > 0
    # the stats.txt output is archived as a file in the database
    stats_text = db.download_file(doc["results"]["stats_file_id"])
    assert b"Begin Simulation Statistics" in stats_text


def test_run_records_simulation_failures_as_outcomes(db, fs_artifacts):
    run = make_run(
        db,
        fs_artifacts,
        cpu_type="timing",
        num_cpus=2,
        memory_system="classic",
        benchmark=None,
    )
    summary = run.run()
    assert not summary["success"]
    assert summary["simulation_status"] == "unsupported"
    assert run.status is RunStatus.DONE  # the run itself completed


def test_run_load_roundtrip(db, fs_artifacts):
    run = make_run(db, fs_artifacts)
    run.run()
    loaded = Gem5Run.load(db, run.run_id)
    assert loaded.status is RunStatus.DONE
    assert loaded.params["benchmark"] == "ferret"
    assert loaded.results["success"]


def test_run_timeout_recorded(db, fs_artifacts):
    run = make_run(db, fs_artifacts, timeout=0.0)
    summary = run.run()
    assert summary["timed_out"]
    assert run.status is RunStatus.TIMED_OUT


def test_gpu_run(db):
    repo = register_repo(db, "gem5", version="v21.0-gpu")
    binary = register_gem5_binary(
        db,
        Gem5Build(version="21.0", isa="GCN3_X86"),
        name="gem5-gcn3",
        inputs=[repo],
    )
    run = Gem5Run.create_gpu_run(
        db, binary, repo, workload="FAMutex", register_allocator="dynamic"
    )
    summary = run.run()
    assert summary["success"]
    assert summary["shader_ticks"] > 0
    assert summary["register_allocator"] == "dynamic"


def test_gpu_run_requires_gcn3_build(db):
    repo = register_repo(db, "gem5")
    binary = register_gem5_binary(db, Gem5Build(), inputs=[repo])
    with pytest.raises(ValidationError):
        Gem5Run.create_gpu_run(db, binary, repo, workload="FAMutex")


def test_run_jobs_pool(db, fs_artifacts):
    runs = [
        make_run(db, fs_artifacts, num_cpus=n, benchmark=None)
        for n in (1, 1, 1)
    ]
    summaries = run_jobs_pool(runs, processes=2)
    assert len(summaries) == 3
    assert all(s["success"] for s in summaries)
    assert all(
        db.get_run(r.run_id)["status"] == "done" for r in runs
    )


def test_run_jobs_scheduler(db, fs_artifacts):
    runs = [
        make_run(db, fs_artifacts, benchmark=None) for _ in range(4)
    ]
    summaries = run_jobs_scheduler(runs, worker_count=2)
    assert len(summaries) == 4
    assert all(s["success"] for s in summaries)


@pytest.fixture
def writes():
    log = record_writes()
    yield log
    chaos.uninstall()


def _launch_with_a_wedged_run(db, a, monkeypatch, writes, substrate):
    """A two-point sweep through ``Experiment.launch`` whose first
    simulation outlives its 0.3 s timeout: what the planner has
    recorded at the moment it returns, and that nothing is written
    afterwards.  Returns the telemetry session's events."""
    wedge_simulations(monkeypatch, seconds=1.0)
    experiment = Experiment(db, "deadline")
    experiment.add_stack(
        "ubuntu-18.04",
        gem5=a["gem5"],
        gem5_git=a["gem5_git"],
        run_script_git=a["script_git"],
        linux_binary=a["kernel"],
        disk_image=a["disk"],
    )
    experiment.fix(cpu_type="timing", benchmark="ferret")
    experiment.sweep(num_cpus=[WEDGED_CPUS, 1])
    wedged, healthy = experiment.create_runs()
    assert wedged.params["num_cpus"] == WEDGED_CPUS
    wedged.timeout = 0.3
    with telemetry.session() as session:
        summaries = experiment.launch(workers=1, substrate=substrate)
        written = len(writes.firings)
        events = session.events.records()
    doc = db.get_run(wedged.run_id)
    assert doc["status"] == "timed_out"
    assert wedged.status is RunStatus.TIMED_OUT
    assert wedged.results == doc["results"] == summaries[0]
    assert summaries[0]["timed_out"] and "timed out" in summaries[0]["error"]
    # The same sweep goes on: the next run finds a worker.
    assert summaries[1]["success"]
    assert db.get_run(healthy.run_id)["status"] == "done"
    time.sleep(1.5)  # an abandoned helper thread has ended by now
    assert len(writes.firings) == written
    return events


def test_run_jobs_scheduler_timeout_is_an_outcome(
    db, fs_artifacts, monkeypatch, writes
):
    _launch_with_a_wedged_run(db, fs_artifacts, monkeypatch, writes, "threads")


def test_run_jobs_scheduler_timeout_kills_the_wedged_worker(
    db, fs_artifacts, monkeypatch, writes
):
    events = _launch_with_a_wedged_run(
        db, fs_artifacts, monkeypatch, writes, "processes"
    )
    # A wedged process is a dead process: its pid is gone, and its seat
    # came back through the one recovery path with nothing to redeliver.
    (lost,) = [e for e in events if e["kind"] == "procpool.worker_lost"]
    assert lost["attributes"]["task_id"] is None
    with pytest.raises(ProcessLookupError):
        os.kill(lost["attributes"]["pid"], 0)
    assert not [e for e in events if e["kind"] == "procpool.redelivered"]


def test_camelcase_aliases(db, fs_artifacts):
    a = fs_artifacts
    run = Gem5Run.createFSRun(
        db,
        gem5_artifact=a["gem5"],
        gem5_git_artifact=a["gem5_git"],
        run_script_git_artifact=a["script_git"],
        linux_binary_artifact=a["kernel"],
        disk_image_artifact=a["disk"],
    )
    assert run.kind == "fs"


def test_run_exception_marked_failed(db, fs_artifacts):
    """A run whose simulation raises (benchmark not installed) is marked
    failed in the database, with the error recorded — never lost."""
    run = make_run(db, fs_artifacts, benchmark="not-installed")
    with pytest.raises(Exception):
        run.run()
    doc = db.get_run(run.run_id)
    assert doc["status"] == "failed"
    assert "not-installed" in doc["results"]["error"]
    assert run.status is RunStatus.FAILED


def test_run_unknown_kind_rejected(db, fs_artifacts):
    run = make_run(db, fs_artifacts, benchmark=None)
    run.kind = "quantum"
    with pytest.raises(ValidationError):
        run.run()


def test_scheduler_processes_substrate_executes_runs(db, fs_artifacts):
    runs = [
        make_run(db, fs_artifacts, num_cpus=n) for n in (1, 2, 4)
    ]
    summaries = run_jobs_scheduler(
        runs, worker_count=2, substrate="processes"
    )
    assert [run.status for run in runs] == [RunStatus.DONE] * 3
    for summary in summaries:
        assert summary["stats_file_id"]
        assert summary["stats_fingerprint"]
        # The worker's stats crossed the process boundary intact: the
        # blob the parent archived hashes to the worker's fingerprint.
        blob = db.download_file(summary["stats_file_id"])
        from repro.common.hashing import sha256_bytes

        assert sha256_bytes(blob) == summary["stats_fingerprint"]


def test_run_in_pool_is_run_with_the_simulation_shipped(db, fs_artifacts):
    """The two synchronous compositions of begin / simulate / finish
    leave the same document; an identical run then adopts it."""
    from repro.scheduler import ProcessPool

    local = make_run(db, fs_artifacts, num_cpus=1)
    shipped = make_run(db, fs_artifacts, num_cpus=2)
    local.run()
    with ProcessPool(workers=1) as pool:
        summary = shipped.run_in_pool(pool)
        again = make_run(db, fs_artifacts, num_cpus=2).run_in_pool(pool)
    assert shipped.status is RunStatus.DONE
    assert summary["worker"] == "procpool-worker-0"
    assert summary == db.get_run(shipped.run_id)["results"] == again
    assert set(summary) - set(local.results) == {"stats_fingerprint", "worker"}


def test_scheduler_processes_substrate_coalesces_identical_runs(
    db, fs_artifacts
):
    runs = [make_run(db, fs_artifacts) for _ in range(3)]
    assert len({run.fingerprint for run in runs}) == 1
    summaries = run_jobs_scheduler(
        runs, worker_count=2, substrate="processes"
    )
    assert [run.status for run in runs] == [RunStatus.DONE] * 3
    assert all(s.get("simulation_status") == "ok" for s in summaries)
    # Followers adopted the leader's archived result.
    adopted = [
        db.get_run(run.run_id).get("cache_hit") for run in runs
    ]
    assert adopted.count(True) >= 1


def test_unknown_substrate_rejected(db, fs_artifacts):
    with pytest.raises(ValidationError, match="inline.*threads.*processes"):
        run_jobs_scheduler(
            [make_run(db, fs_artifacts)], substrate="fibers"
        )
