"""Tests for resumable experiments and archived GPU statistics."""

import pytest

from repro.art import (
    ArtifactDB,
    Experiment,
    Gem5Run,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
)
from repro.guest import get_distro
from repro.gpu import GPUDevice, get_gpu_workload
from repro.resources import build_resource
from repro.sim import Gem5Build


def make_experiment(db):
    gem5_repo = register_repo(db, "gem5")
    resources_repo = register_repo(db, "gem5-resources", version="r1")
    experiment = Experiment(db, "resumable")
    experiment.add_stack(
        "ubuntu-18.04",
        gem5=register_gem5_binary(db, Gem5Build(), inputs=[gem5_repo]),
        gem5_git=gem5_repo,
        run_script_git=resources_repo,
        linux_binary=register_kernel_binary(
            db, get_distro("18.04").kernel
        ),
        disk_image=register_disk_image(
            db, build_resource("parsec").image
        ),
    )
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(benchmark=["ferret", "vips"], num_cpus=[1])
    return experiment


def test_resume_skips_completed_runs():
    db = ArtifactDB()
    experiment = make_experiment(db)
    runs = experiment.create_runs()
    # Simulate an interrupted launch: only the first run completed.
    runs[0].run()
    first_results = db.get_run(runs[0].run_id)["results"]

    summaries = experiment.resume(substrate="inline")
    assert len(summaries) == 2
    assert all(s is not None and s["success"] for s in summaries)
    # The completed run was NOT re-executed (results object unchanged,
    # including its host-time measurement).
    assert db.get_run(runs[0].run_id)["results"] == first_results


def test_resume_on_fresh_experiment_runs_everything():
    db = ArtifactDB()
    experiment = make_experiment(db)
    experiment.create_runs()
    summaries = experiment.resume(substrate="inline")
    assert all(s["success"] for s in summaries)


def test_full_launch_returns_stored_results():
    db = ArtifactDB()
    experiment = make_experiment(db)
    summaries = experiment.launch(workers=2)
    for summary, run_id in zip(
        summaries,
        db.database.collection("experiments").find_one(
            {"name": "resumable"}
        )["run_ids"],
    ):
        assert summary == db.get_run(run_id)["results"]


# ------------------------------------------------------------- GPU stats


def test_gpu_result_stats_txt():
    device = GPUDevice()
    result = device.execute(
        get_gpu_workload("MatrixTranspose").kernel, "dynamic"
    )
    text = result.stats_txt()
    assert "Begin Simulation Statistics" in text
    assert "shader_ticks" in text
    assert "cu_wavefronts::cu0" in text


def test_gpu_wavefronts_balanced_across_cus():
    device = GPUDevice()
    result = device.execute(
        get_gpu_workload("MatrixTranspose").kernel, "simple"
    )
    per_cu = result.stats["cu_wavefronts"]
    assert len(per_cu) == 4
    values = list(per_cu.values())
    assert max(values) - min(values) <= 4  # round-robin balance
    assert sum(values) == result.stats["total_wavefronts"]


def test_gpu_run_archives_stats_file():
    db = ArtifactDB()
    repo = register_repo(db, "gem5", version="v21.0")
    binary = register_gem5_binary(
        db,
        Gem5Build(version="21.0", isa="GCN3_X86"),
        name="gem5-gcn3",
        inputs=[repo],
    )
    run = Gem5Run.create_gpu_run(
        db, binary, repo, workload="FAMutex", register_allocator="simple"
    )
    summary = run.run()
    stats = db.download_file(summary["stats_file_id"]).decode()
    assert "sync_ticks" in stats
    assert "occupancy_per_simd" in stats
