"""Substrates can make a sweep faster or slower, never different.

One invariant over the configuration matrix instead of one identity
assert per feature: the ``--quick`` Fig 8 grid (48 runs) through
``Experiment.launch`` on every substrate, with and without the staged
checkpoint pipeline, must leave the same sorted ``(fingerprint,
simulation_status, stats_file_id)`` triples in the database — the triple
``benchmarks/perf/inspect_sample.py::runs_digest`` hashes — on every
substrate, and the same outcomes with and without checkpoints.
"""

import itertools

import pytest

from repro import telemetry
from repro.art import (
    ArtifactDB,
    CheckpointStore,
    Experiment,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_jobs_scheduler,
)
from repro.art.run import InputResolver, boot_checkpoint
from repro.art.tasks import SUBSTRATES
from repro.guest import BOOT_TEST_KERNEL_VERSIONS, get_kernel
from repro.resources import build_resource
from repro.sim import Gem5Build

from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.helpers import events_of


@pytest.fixture
def db():
    return ArtifactDB()


def quick_fig8(db, boot_type=("init",)):
    """The experiment ``repro boot-tests --quick`` declares."""
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(
        db,
        "gem5-resources",
        url="https://gem5.googlesource.com/public/gem5-resources",
        version="c5f5c70",
    )
    version = BOOT_TEST_KERNEL_VERSIONS[0]
    experiment = Experiment(db, "boot-tests")
    experiment.add_stack(
        f"linux-{version}",
        gem5=register_gem5_binary(
            db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
        ),
        gem5_git=gem5_repo,
        run_script_git=resources_repo,
        linux_binary=register_kernel_binary(db, get_kernel(version)),
        disk_image=register_disk_image(
            db, build_resource("boot-exit").image, inputs=[resources_repo]
        ),
    )
    experiment.sweep(
        boot_type=list(boot_type),
        cpu_type=["kvm", "atomic", "timing", "o3"],
        memory_system=["classic", "MI_example", "MESI_Two_Level"],
        num_cpus=[1, 2, 4, 8],
    )
    return experiment


def run_triples(db):
    return sorted(
        (
            doc["fingerprint"],
            doc["results"]["simulation_status"],
            doc["results"]["stats_file_id"],
        )
        for doc in db.database.collection("runs").find()
    )


def test_fig8_quick_grid_is_identical_on_every_substrate():
    outcomes = {}
    for substrate, use_checkpoints in itertools.product(
        SUBSTRATES, (False, True)
    ):
        db = ArtifactDB()
        summaries = quick_fig8(db).launch(
            workers=2,
            substrate=substrate,
            use_checkpoints=use_checkpoints,
        )
        assert len(summaries) == 48
        outcomes[(substrate, use_checkpoints)] = run_triples(db)
    for use_checkpoints in (False, True):
        reference = outcomes[("inline", use_checkpoints)]
        assert len({fingerprint for fingerprint, _, _ in reference}) == 48
        for substrate in SUBSTRATES:
            assert outcomes[(substrate, use_checkpoints)] == reference, (
                substrate, use_checkpoints,
            )
    # A restored run's stats blob leaves out the boot-attributed
    # statistics by design, so across the checkpoint axis the blob ids
    # differ and the outcomes must not.
    assert [triple[:2] for triple in outcomes[("inline", True)]] == [
        triple[:2] for triple in outcomes[("inline", False)]
    ]


def test_duplicated_grid_coalesces_the_same_way_on_every_substrate():
    """The duplicate-fingerprint column: every point of the grid twice.
    Coalescing can make a sweep faster, never different — same triples,
    same number of adopted documents, and a coalesced count that does
    not depend on how many workers raced."""
    outcomes, adopted, coalesced = {}, {}, {}
    for substrate, workers in (
        ("inline", 1), ("processes", 1), ("processes", 3),
    ):
        db = ArtifactDB()
        with telemetry.session() as session:
            summaries = quick_fig8(db, boot_type=("init", "init")).launch(
                workers=workers, substrate=substrate
            )
            coalesced[(substrate, workers)] = session.metrics.counter(
                "runcache_coalesced_total"
            ).value()
        assert len(summaries) == 96
        outcomes[(substrate, workers)] = run_triples(db)
        adopted[(substrate, workers)] = sum(
            bool(doc.get("cache_hit"))
            for doc in db.database.collection("runs").find()
        )
    reference = outcomes[("inline", 1)]
    assert len({fingerprint for fingerprint, _, _ in reference}) == 48
    for key in outcomes:
        assert outcomes[key] == reference, key
        assert adopted[key] == 48, key
    # On every substrate the second of each pair is never enqueued: it
    # adopts the first's result once that has settled.
    assert coalesced == dict.fromkeys(coalesced, 48)


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
