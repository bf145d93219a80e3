"""Tests for resumable experiments and archived GPU statistics."""

import pytest
from hypothesis import given, strategies as st

from repro.art import (
    ArtifactDB,
    Experiment,
    Gem5Run,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
)
from repro.common.hashing import sha256_text
from repro.guest import get_distro
from repro.gpu import GPUConfig, GPUDevice, GPUKernel, get_gpu_workload
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


def make_gpu_experiment(db):
    repo = register_repo(db, "gem5", version="v21.0")
    experiment = Experiment(db, "gpu-resumable")
    experiment.add_stack(
        "gcn3",
        gem5=register_gem5_binary(
            db,
            Gem5Build(version="21.0", isa="GCN3_X86"),
            name="gem5-gcn3",
            inputs=[repo],
        ),
        gem5_git=repo,
    )
    experiment.sweep(
        workload=["FAMutex", "MatrixTranspose"],
        register_allocator=["simple", "dynamic"],
    )
    return experiment


def test_gpu_experiment_reloads_and_resumes_its_missing_point():
    """A GPU stack's points are GPU runs; ``Experiment.load`` rebuilds
    one that has no document — same id, same fingerprint — and
    ``resume`` executes exactly that one."""
    db = ArtifactDB()
    runs = make_gpu_experiment(db).create_runs()
    assert {run.kind for run in runs} == {"gpu"}
    owed = runs[2]
    done = {}
    for run in runs:
        if run is not owed:
            run.run()
            done[run.run_id] = db.get_run(run.run_id)

    loaded = Experiment.load(db, "gpu-resumable")
    rebuilt = loaded._runs[2]
    assert (rebuilt.run_id, rebuilt.kind, rebuilt.fingerprint) == (
        owed.run_id, "gpu", owed.fingerprint,
    )
    assert loaded.pending_runs() == [owed.run_id]

    summaries = loaded.resume(substrate="inline")
    assert all(summary["success"] for summary in summaries)
    assert db.get_run(owed.run_id)["fingerprint"] == owed.fingerprint
    for run_id, doc in done.items():
        assert db.get_run(run_id) == doc
    assert loaded.pending_runs() == []


# ------------------------------------------------------------- GPU stats


def test_gpu_result_stats_txt():
    """Every Fig 9 run's stats.txt, byte for byte: the archived blob's
    id is in the run's results and so in the benchmark's digest."""
    texts = [
        GPUDevice().execute(get_gpu_workload(name).kernel, allocator)
        .stats_txt() for name in
        build_resource("GCN-docker").buildable_workloads()
        for allocator in ("simple", "dynamic")
    ]
    assert len(texts) == 58
    assert sha256_text("".join(texts)) == (
        "623e51e0311fd20a9995fb41fdd6818c83811bc933d970322f07eedff9dbdd64")


@given(st.integers(1, 3000), st.integers(1, 64), st.integers(1, 16))
def test_gpu_wavefronts_balanced_across_cus(groups, cus, waves):
    """Workgroup ``i`` goes to CU ``i % num_cus``: the closed form counts
    exactly what walking the workgroups counts, as floats."""
    expected = {f"cu{i}": 0.0 for i in range(cus)}
    for index in range(groups):
        expected[f"cu{index % cus}"] += waves
    kernel = GPUKernel(name="k", num_workgroups=groups,
                       wavefronts_per_workgroup=waves)
    per_cu = GPUDevice(GPUConfig(num_cus=cus)).execute(kernel).stats[
        "cu_wavefronts"]
    assert per_cu == expected
    assert {type(count) for count in per_cu.values()} == {float}


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
