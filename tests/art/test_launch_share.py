"""Tests for the Experiment launch API and shareable archives."""

import pytest

from repro.art import (
    ArtifactDB,
    Experiment,
    export_archive,
    import_archive,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    verify_archive,
)
from repro.art.studies import boot_tests
from repro.common.errors import StateError, ValidationError
from repro.db import connect
from repro.guest import get_distro
from repro.resources import build_resource
from repro.sim import Gem5Build


@pytest.fixture
def db():
    return ArtifactDB()


def stack_artifacts(db, distro="ubuntu-18.04"):
    gem5_repo = register_repo(db, "gem5")
    resources_repo = register_repo(db, "gem5-resources", version="r1")
    gem5 = register_gem5_binary(db, Gem5Build(), inputs=[gem5_repo])
    kernel = register_kernel_binary(db, get_distro(distro).kernel)
    disk = register_disk_image(
        db, build_resource("parsec", distro=distro).image
    )
    return dict(
        gem5=gem5,
        gem5_git=gem5_repo,
        run_script_git=resources_repo,
        linux_binary=kernel,
        disk_image=disk,
    )


def make_experiment(db, apps=("ferret",), cpus=(1, 8)):
    experiment = Experiment(db, "parsec-mini")
    experiment.add_stack("ubuntu-18.04", **stack_artifacts(db))
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(benchmark=list(apps), num_cpus=list(cpus))
    return experiment


# ---------------------------------------------------------------- launch


def test_experiment_size_and_create(db):
    experiment = make_experiment(db, apps=("ferret", "vips"))
    assert experiment.size() == 4
    runs = experiment.create_runs()
    assert len(runs) == 4
    params = {(r.params["benchmark"], r.params["num_cpus"]) for r in runs}
    assert params == {
        ("ferret", 1), ("ferret", 8), ("vips", 1), ("vips", 8),
    }


def test_experiment_recorded_in_db(db):
    experiment = make_experiment(db)
    experiment.create_runs()
    doc = db.database.collection("experiments").find_one(
        {"name": "parsec-mini"}
    )
    assert doc is not None
    assert doc["axes"]["num_cpus"] == [1, 8]
    assert len(doc["run_ids"]) == 2
    assert "ubuntu-18.04" in doc["stacks"]


def test_experiment_launch_inline_and_report(db):
    experiment = make_experiment(db)
    summaries = experiment.launch(substrate="inline")
    assert all(s["success"] for s in summaries)
    report = experiment.report()
    assert report["runs"] == 2
    assert report["by_stack"]["ubuntu-18.04"]["ok"] == 2


def test_experiment_launch_pool_backend(db):
    summaries = make_experiment(db).launch(workers=2)
    assert len(summaries) == 2


def test_experiment_multi_stack(db):
    experiment = Experiment(db, "two-os")
    experiment.add_stack("ubuntu-18.04", **stack_artifacts(db, "ubuntu-18.04"))
    experiment.add_stack("ubuntu-20.04", **stack_artifacts(db, "ubuntu-20.04"))
    experiment.fix(
        cpu_type="timing", memory_system="MESI_Two_Level",
        benchmark="ferret",
    )
    experiment.sweep(num_cpus=[1])
    assert len(experiment.create_runs()) == 2
    stacks = {record["stack"] for record in experiment.records()}
    assert stacks == {"ubuntu-18.04", "ubuntu-20.04"}


def test_experiment_validation(db):
    with pytest.raises(ValidationError):
        Experiment(db, "")
    experiment = Experiment(db, "x")
    with pytest.raises(ValidationError):
        experiment.add_stack("incomplete")  # missing roles
    with pytest.raises(ValidationError):
        experiment.sweep(num_cpus=[])
    with pytest.raises(StateError):
        experiment.create_runs()  # no stacks
    with pytest.raises(StateError):
        experiment.report()  # not launched


def test_experiment_unknown_backend(db):
    """``substrate`` is the one execution knob: an unknown value is
    rejected, and the old ``backend`` spelling is not silently
    accepted."""
    experiment = make_experiment(db)
    with pytest.raises(ValidationError, match="substrate"):
        experiment.launch(substrate="slurm")
    with pytest.raises(TypeError):
        experiment.launch(backend="inline")
    with pytest.raises(TypeError):
        experiment.resume(backend="inline")


def test_experiment_double_create_rejected(db):
    experiment = make_experiment(db)
    experiment.create_runs()
    with pytest.raises(StateError):
        experiment.create_runs()


# ----------------------------------------------------------------- share


def run_small_experiment(db):
    experiment = make_experiment(db)
    experiment.launch(substrate="inline")
    return experiment


def test_export_verify_import_roundtrip(db, tmp_path):
    run_small_experiment(db)
    archive = str(tmp_path / "archive")
    counts = export_archive(db, archive)
    assert counts["runs"] == 2
    assert counts["artifacts"] == 5  # 2 repos, binary, kernel, disk
    assert counts["files"] > 0
    assert verify_archive(archive) == dict(
        counts, experiments=counts["experiments"]
    )

    other = ArtifactDB()
    imported = import_archive(archive, other)
    assert imported["runs"] == 2
    # Every payload travelled: the stats file of each run is readable.
    for doc in other.runs.all_documents():
        assert other.download_file(doc["results"]["stats_file_id"])


def test_a_warm_sweep_reads_through_its_references(tmp_path):
    """An adopter's document is a reference to its producer's: the warm
    experiment loads, resumes and travels as the cold one does."""
    db = ArtifactDB(connect(f"file://{tmp_path / 'db'}"))
    cold, warm = boot_tests(db, quick=True), boot_tests(db, quick=True)
    for experiment in (cold, warm):
        experiment.launch()

    def records(db, experiment):
        loaded = Experiment.load(db, experiment.experiment_id).records()
        return [dict(record, run_id=None) for record in loaded]

    assert records(db, warm) == records(db, cold)
    stored = db.runs.find()
    Experiment.load(db, warm.experiment_id).resume()
    assert db.runs.find() == stored
    archive, other = str(tmp_path / "archive"), ArtifactDB()
    export_archive(db, archive)
    verify_archive(archive)
    import_archive(archive, other)
    assert records(other, warm) == records(db, cold)

    reference = db.find_run(warm.records()[0]["run_id"])
    producer = reference["cached_from"]
    db.runs.delete_one({"_id": producer})
    with pytest.raises(ValidationError, match=f"{reference['_id']}.*{producer}"):
        Experiment.load(db, warm.experiment_id)


def test_import_is_idempotent(db, tmp_path):
    run_small_experiment(db)
    archive = str(tmp_path / "archive")
    export_archive(db, archive)
    other = ArtifactDB()
    import_archive(archive, other)
    again = import_archive(archive, other)
    assert again == {"artifacts": 0, "runs": 0, "experiments": 0, "files": 0}


def test_verify_detects_blob_tampering(db, tmp_path):
    run_small_experiment(db)
    archive = str(tmp_path / "archive")
    export_archive(db, archive)
    files_dir = tmp_path / "archive" / "files"
    victim = next(files_dir.iterdir())
    victim.write_bytes(b"tampered")
    with pytest.raises(ValidationError):
        verify_archive(archive)


def test_verify_detects_document_tampering(db, tmp_path):
    run_small_experiment(db)
    archive = str(tmp_path / "archive")
    export_archive(db, archive)
    runs_file = tmp_path / "archive" / "runs.jsonl"
    content = runs_file.read_text().replace('"done"', '"epic"')
    runs_file.write_text(content)
    with pytest.raises(ValidationError):
        verify_archive(archive)


def test_verify_rejects_non_archive(tmp_path):
    with pytest.raises(ValidationError):
        verify_archive(str(tmp_path))
