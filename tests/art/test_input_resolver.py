"""The sweep-scoped input resolver and the two deleted read-backs.

A sweep's inputs are a pure function of content hashes its runs already
carry, so the planner resolves each distinct artifact once
(:class:`repro.art.InputResolver`) and a run never reads back what it
just wrote.  The first half of this file is the *call budget* — exact
counts of ``Collection.find`` and ``FileStore.get_bytes`` over the quick
Fig 8 grid; the second half is what sharing must not change.
"""

import pytest

from repro.art import (
    ArtifactDB,
    Experiment,
    Gem5Run,
    InputResolver,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_jobs_scheduler,
)
from repro.art.tasks import SUBSTRATES
from repro.common.errors import CorruptBlobError, NotFoundError
from repro.db.collection import Collection
from repro.db.filestore import FileStore
from repro.guest import get_kernel
from repro.resources import build_resource
from repro.sim import Gem5Build

from tests.art.test_substrate_equivalence import quick_fig8

#: Result fields that differ between two executions of one spec.
VOLATILE = ("host_seconds", "worker")


@pytest.fixture
def db():
    return ArtifactDB()


@pytest.fixture
def reads(monkeypatch):
    """Count every ``Collection.find`` and ``FileStore.get_bytes``."""
    calls = {"find": [], "get_bytes": []}
    find, get_bytes = Collection.find, FileStore.get_bytes

    def find_and_count(self, query=None, **kwargs):
        calls["find"].append((self.name, query))
        return find(self, query, **kwargs)

    def counting_get_bytes(self, digest):
        calls["get_bytes"].append(digest)
        return get_bytes(self, digest)

    monkeypatch.setattr(Collection, "find", find_and_count)
    monkeypatch.setattr(FileStore, "get_bytes", counting_get_bytes)
    return calls


def boot_stack(db, kernel_version, image):
    """One Fig 8 style stack; the repos and the simulator are shared."""
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(
        db, "gem5-resources", version="c5f5c70"
    )
    return dict(
        gem5=register_gem5_binary(
            db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
        ),
        gem5_git=gem5_repo,
        run_script_git=resources_repo,
        linux_binary=register_kernel_binary(
            db, get_kernel(kernel_version)
        ),
        disk_image=register_disk_image(
            db, image, inputs=[resources_repo]
        ),
    )


def slow_init_image():
    """``boot-exit`` with a slower init: a different content hash *and*
    different boot statistics, so serving the wrong image shows."""
    image = build_resource("boot-exit").image
    image.name = "boot-exit-slow-init"
    image.metadata["init_instructions"] = 400_000_000
    return image


def two_stack_experiment(db, stacks=("old", "new")):
    """Two stacks that share nothing but the simulator."""
    shapes = {
        "old": ("4.4.186", build_resource("boot-exit").image),
        "new": ("5.4.49", slow_init_image()),
    }
    experiment = Experiment(db, "two-stacks")
    for name in stacks:
        experiment.add_stack(name, **boot_stack(db, *shapes[name]))
    experiment.fix(boot_type="init", memory_system="classic")
    experiment.sweep(cpu_type=["kvm", "atomic"], num_cpus=[1, 2])
    return experiment


def outcomes(db):
    """fingerprint → (status, stable results, stats blob bytes)."""
    table = {}
    for doc in db.database.collection("runs").find():
        results = {
            key: value
            for key, value in doc["results"].items()
            if key not in VOLATILE
        }
        table[doc["fingerprint"]] = (
            doc["status"],
            results,
            db.download_file(results["stats_file_id"]),
        )
    return table


# ------------------------------------------------------------ call budget


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_launch_reads_once_per_run_and_once_per_artifact(reads, substrate):
    """The quick Fig 8 grid: one find per run (the cache consult) plus
    a constant that does not grow with the grid, and one blob read per
    distinct disk image."""

    def launch_reads(**axes):
        experiment = quick_fig8(ArtifactDB())
        if axes:
            experiment.sweep(**axes)
        runs = experiment.create_runs()
        for counted in reads.values():
            del counted[:]
        summaries = experiment.launch(workers=2, substrate=substrate)
        assert len(summaries) == len(runs)
        assert all("simulation_status" in s for s in summaries)
        return len(runs), len(reads["find"]), len(reads["get_bytes"])

    runs, finds, blob_reads = launch_reads()
    assert runs == 48
    assert blob_reads == 1
    small, small_finds, small_blob_reads = launch_reads(
        cpu_type=["kvm"], memory_system=["classic"]
    )
    assert small == 4
    assert small_blob_reads == 1
    # gem5 binary + kernel + disk image, whatever the grid.
    assert finds - runs == small_finds - small == 3


def test_each_sweep_re_reads_and_re_verifies_its_artifacts(db, reads):
    """The resolver dies with the planner call."""
    image = build_resource("boot-exit").image
    stack = boot_stack(db, "5.4.49", image)
    for _ in range(2):
        runs = [
            Gem5Run.create_fs_run(
                db,
                gem5_artifact=stack["gem5"],
                gem5_git_artifact=stack["gem5_git"],
                run_script_git_artifact=stack["run_script_git"],
                linux_binary_artifact=stack["linux_binary"],
                disk_image_artifact=stack["disk_image"],
                cpu_type="kvm",
                num_cpus=cores,
                boot_type="init",
            )
            for cores in (1, 2)
        ]
        run_jobs_scheduler(runs, substrate="inline", use_cache=False)
    assert reads["get_bytes"] == [stack["disk_image"].file_id] * 2


def test_stacks_in_one_sweep_get_their_own_inputs(db):
    """Different kernels *and* different disk images in one sweep: no
    cross-talk — every run document and stats blob equals what a sweep
    of its stack alone produces."""
    experiment = two_stack_experiment(db)
    runs = experiment.create_runs()
    resolver = InputResolver()
    by_stack = {}
    for run in runs:
        by_stack.setdefault(experiment.stack_of(run.run_id), []).append(
            resolver.live(run)
        )
    for name, version, image in (
        ("old", "4.4.186", build_resource("boot-exit").image),
        ("new", "5.4.49", slow_init_image()),
    ):
        first = by_stack[name][0]
        assert first["kernel_version"] == version
        assert first["disk_image"] == image
        assert all(
            inputs["disk_image"] is first["disk_image"]
            for inputs in by_stack[name]
        )
    assert (
        by_stack["old"][0]["disk_image"]
        is not by_stack["new"][0]["disk_image"]
    )

    assert len(experiment.launch(workers=2)) == 8
    together = outcomes(db)
    assert len(together) == 8
    alone = {}
    for name in ("old", "new"):
        solo_db = ArtifactDB()
        two_stack_experiment(solo_db, stacks=(name,)).launch(workers=2)
        alone.update(outcomes(solo_db))
    assert together == alone
    # The two images really do boot differently.
    assert len({blob for _, _, blob in together.values()}) == 8


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_missing_artifact_fails_each_dependent_run_and_is_not_memoized(
    db, reads, substrate
):
    experiment = two_stack_experiment(db)
    runs = experiment.create_runs()
    stack_of = {run.run_id: experiment.stack_of(run.run_id) for run in runs}
    kernel_id = next(
        run.artifacts["linux_binary"]
        for run in runs
        if stack_of[run.run_id] == "new"
    )
    kernel_doc = db.get_artifact(kernel_id)
    db.artifacts.delete_one({"_id": kernel_id})

    resolver = InputResolver()
    orphan = next(run for run in runs if stack_of[run.run_id] == "new")
    with pytest.raises(NotFoundError, match=kernel_id):
        resolver.live(orphan)

    del reads["find"][:]
    experiment.launch(workers=2, substrate=substrate)
    for run in runs:
        doc = db.get_run(run.run_id)
        if stack_of[run.run_id] == "old":
            assert doc["status"] == "done"
        else:
            assert doc["status"] == "failed"
            assert doc["results"] == {
                "error": f"no artifact with id {kernel_id}"
            }
    # A failed load is asked again by every dependent run.
    lookups = [
        query
        for name, query in reads["find"]
        if name == "artifacts" and query == {"_id": kernel_id}
    ]
    assert len(lookups) == 4

    db.put_artifact(kernel_doc)
    assert resolver.live(orphan)["kernel_version"] == "5.4.49"
    summaries = experiment.resume(
        workers=2, substrate=substrate, retry_failures=True
    )
    assert [db.get_run(run.run_id)["status"] for run in runs] == ["done"] * 8
    assert all("error" not in summary for summary in summaries)


def test_corrupt_image_blob_fails_runs_with_the_store_error(db):
    """Two flipped bytes in the disk image: every read that happens is
    still hash-verified, and the runs fail naming the corruption."""
    experiment = two_stack_experiment(db, stacks=("old",))
    runs = experiment.create_runs()
    blob_id = db.get_artifact(runs[0].artifacts["disk_image"])["file_id"]
    blobs = db.database.files._memory
    blobs[blob_id] = (
        bytes(byte ^ 0xFF for byte in blobs[blob_id][:2])
        + blobs[blob_id][2:]
    )
    with pytest.raises(CorruptBlobError):
        runs[0].run()
    experiment.launch(workers=2)
    for run in runs:
        doc = db.get_run(run.run_id)
        assert doc["status"] == "failed"
        assert f"blob {blob_id} is corrupt" in doc["results"]["error"]


# ------------------------------------------- what launch / resume return


def stored_results(db, experiment):
    return [
        db.get_run(run.run_id)["results"] for run in experiment._runs
    ]


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_launch_returns_the_stored_results(db, substrate):
    experiment = two_stack_experiment(db)
    summaries = experiment.launch(workers=2, substrate=substrate)
    assert len(summaries) == 8
    assert summaries == stored_results(db, experiment)


def test_resume_returns_the_stored_results_of_settled_runs_too(db):
    experiment = two_stack_experiment(db)
    runs = experiment.create_runs()
    for run in runs[:3]:
        run.run()
    # Finished behind this experiment's back, through another object:
    # the point as a loaded experiment rebuilds it (it has no document).
    Experiment.load(db, "two-stacks")._runs[3].run()
    assert experiment.resume(workers=2) == stored_results(db, experiment)
    loaded = Experiment.load(db, "two-stacks")
    summaries = loaded.resume(workers=2)
    assert summaries == stored_results(db, loaded)
    assert all(summary["success"] for summary in summaries)


def test_coalesced_duplicate_returns_its_own_stored_results(db):
    """Two points with one fingerprint: the follower never executes,
    adopts the leader's result, and is reported from its own document."""
    experiment = two_stack_experiment(db, stacks=("old",))
    experiment.sweep(num_cpus=[1, 1])
    summaries = experiment.launch(workers=2)
    docs = [db.get_run(run.run_id) for run in experiment._runs]
    assert len({doc["fingerprint"] for doc in docs}) == 2
    assert sum(bool(doc.get("cache_hit")) for doc in docs) == 2
    assert summaries == [doc["results"] for doc in docs]
