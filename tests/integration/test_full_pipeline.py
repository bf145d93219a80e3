"""Integration tests crossing every subsystem boundary.

These exercise the complete paper workflow: resources → packer → vfs →
artifacts → db → run objects → scheduler → simulator → analysis, plus the
persistence and reproducibility properties the framework exists for.
"""

from repro.analysis import pivot
from repro.art import (
    ArtifactDB,
    Experiment,
    Gem5Run,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
)
from repro.art.workflow import workflow_graph
from repro.db import connect
from repro.guest import get_distro, get_kernel
from repro.resources import build_resource
from repro.sim import Gem5Build


def build_experiment(db, distro="ubuntu-18.04", apps=("ferret",)):
    """Register the full artifact set for a PARSEC experiment and
    declare its sweep: each app on 1 and 8 cores."""
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(db, "gem5-resources", version="31924b6")
    gem5 = register_gem5_binary(
        db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
    )
    kernel = register_kernel_binary(db, get_distro(distro).kernel)
    disk = register_disk_image(
        db,
        build_resource("parsec", distro=distro).image,
        inputs=[resources_repo],
    )
    experiment = Experiment(db, "parsec")
    experiment.add_stack(
        distro, gem5=gem5, gem5_git=gem5_repo, run_script_git=resources_repo,
        linux_binary=kernel, disk_image=disk,
    )
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(benchmark=list(apps), num_cpus=[1, 8])
    return experiment


def test_resources_to_analysis_roundtrip():
    db = ArtifactDB()
    experiment = build_experiment(db, apps=("ferret", "vips"))
    experiment.launch(workers=4, substrate="processes")

    records = experiment.records()
    assert len(records) == 4
    table = pivot(records, "benchmark", "num_cpus", "workload_seconds")
    assert table["ferret"][1] > table["ferret"][8] > 0
    assert table["vips"][1] > table["vips"][8] > 0


def test_workflow_graph_covers_experiment():
    db = ArtifactDB()
    build_experiment(db)
    graph = workflow_graph(db)
    types = {node["type"] for node in graph["nodes"]}
    assert types == {"git repo", "gem5 binary", "kernel", "disk image"}
    assert len(graph["edges"]) == 2  # gem5<-repo, disk<-resources repo


def test_persistent_database_roundtrip(tmp_path):
    """An experiment archived to disk is fully recoverable — the
    reproducibility property the paper's database provides."""
    uri = f"file://{tmp_path}/experiment-db"
    db = ArtifactDB(connect(uri))
    build_experiment(db).launch(workers=2, substrate="processes")
    db.save()

    # A different researcher opens the same database.
    reopened = ArtifactDB(connect(uri))
    assert reopened.artifacts.count() == db.artifacts.count()
    records = Experiment.load(reopened, "parsec").records()
    assert len(records) == 2
    for record in records:
        assert record["success"]
        # The archived stats.txt blob survived too.
        stats = reopened.download_file(record["stats_file_id"])
        assert b"sim_seconds" in stats
    # The disk image payload can be reconstructed byte-for-byte.
    disk_doc = reopened.artifacts.find({"type": "disk image"})[0]
    assert reopened.has_file(disk_doc["file_id"])


def test_changing_one_input_changes_exactly_that_artifact():
    """Rebuilding the disk image on a different distro changes the disk
    artifact hash (and the results), but no other artifact."""
    db18 = ArtifactDB()
    db20 = ArtifactDB()
    build_experiment(db18, distro="ubuntu-18.04")
    build_experiment(db20, distro="ubuntu-20.04")

    def hashes_by_type(db):
        return {
            doc["type"]: doc["hash"]
            for doc in db.artifacts.all_documents()
            if doc["type"] != "git repo"
        }

    h18 = hashes_by_type(db18)
    h20 = hashes_by_type(db20)
    assert h18["gem5 binary"] == h20["gem5 binary"]
    assert h18["disk image"] != h20["disk image"]
    assert h18["kernel"] != h20["kernel"]  # distros pin different kernels


def test_broken_benchmark_flows_through_pipeline():
    """x264 aborts inside the simulator; the run layer must archive that
    as a completed run with a failure outcome, not crash."""
    db = ArtifactDB()
    gem5_repo = register_repo(db, "gem5")
    gem5 = register_gem5_binary(db, Gem5Build(), inputs=[gem5_repo])
    kernel = register_kernel_binary(db, get_kernel("4.15.18"))
    disk = register_disk_image(
        db, build_resource("parsec", distro="ubuntu-18.04").image
    )
    run = Gem5Run.create_fs_run(
        db, gem5, gem5_repo, gem5_repo, kernel, disk, benchmark="x264"
    )
    summary = run.run()
    assert not summary["success"]
    assert summary["simulation_status"] == "workload_abort"
    assert "x264" in summary["reason"]
    assert db.get_run(run.run_id)["status"] == "done"
