"""Tests for run objects and task execution (Figs 4 and 5)."""

import pytest

from repro.art import (
    ArtifactDB,
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


class _SlowRun:
    """Stand-in run whose execution reliably outlives the job timeout."""

    run_id = "slow-run"
    timeout = 0.05
    fingerprint = ""

    def run(self, **kwargs):
        import time

        time.sleep(2.0)
        return {"success": True}


def test_run_jobs_scheduler_timeout_is_an_outcome():
    summaries = run_jobs_scheduler([_SlowRun()], worker_count=1)
    assert len(summaries) == 1
    assert not summaries[0]["success"]
    assert summaries[0]["timed_out"]
    assert summaries[0]["run_id"] == "slow-run"


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
