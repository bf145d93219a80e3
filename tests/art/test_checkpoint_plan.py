"""Tests for the staged execution planner: boot stage fan-out over
prefix cohorts, then variant jobs restoring the shared checkpoint."""

import threading

import pytest

from repro import telemetry
from repro.art import (
    ArtifactDB,
    CheckpointStore,
    Gem5Run,
    InputResolver,
    group_runs_by_prefix,
    register_gem5_binary,
    register_repo,
    run_boot_stage,
    run_jobs_scheduler,
)
from repro.art import tasks
from repro.sim import Gem5Build

from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401


@pytest.fixture
def db():
    return ArtifactDB()


#: (num_cpus, memory_system) platform shapes — each is one boot prefix.
PREFIXES = ((1, "MI_example"), (2, "MESI_Two_Level"))

#: Measured-region variants per prefix; every combination passes the
#: fault model on both prefix shapes.
VARIANTS = (
    ("timing", "DDR3_1600_8x8"),
    ("timing", "DDR4_2400_16x4"),
    ("kvm", "DDR3_1600_8x8"),
)


def sweep(db, fs_artifacts):
    return [
        make_run(
            db,
            fs_artifacts,
            cpu_type=cpu,
            num_cpus=cores,
            memory_system=memory_system,
            memory_tech=tech,
        )
        for cores, memory_system in PREFIXES
        for cpu, tech in VARIANTS
    ]


def test_group_runs_by_prefix(db, fs_artifacts):
    runs = sweep(db, fs_artifacts)
    plan = group_runs_by_prefix(runs)
    assert len(plan) == len(PREFIXES)
    assert sorted(i for cohort in plan.values() for i in cohort) == list(
        range(len(runs))
    )
    for prefix, cohort in plan.items():
        assert {runs[i].prefix for i in cohort} == {prefix}


def test_group_runs_skips_runs_without_prefix(db):
    repo = register_repo(db, "gem5", version="v21.0-gpu")
    binary = register_gem5_binary(
        db,
        Gem5Build(version="21.0", isa="GCN3_X86"),
        name="gem5-gcn3",
        inputs=[repo],
    )
    gpu = Gem5Run.create_gpu_run(db, binary, repo, workload="FAMutex")
    assert gpu.prefix is None
    assert group_runs_by_prefix([gpu]) == {}


def test_scheduler_boots_once_per_prefix_inline(db, fs_artifacts):
    runs = sweep(db, fs_artifacts)
    with telemetry.session() as session:
        summaries = run_jobs_scheduler(
            runs, worker_count=2, use_checkpoints=True
        )
        boots = session.metrics.counter("checkpoint_boots_total")
        assert boots.value() == len(PREFIXES)
        hits = session.metrics.counter("checkpoint_hits_total")
        assert sum(s["value"] for s in hits.samples()) == len(runs)
    assert all(s["success"] for s in summaries)
    # Every variant rode its cohort's checkpoint instead of booting,
    # and the store's tally is read off the documents that say so.
    assert all(s["restored_boot"] for s in summaries)
    assert CheckpointStore(db).stats()["restores"] == len(runs)


def test_scheduler_boots_once_per_prefix_processes(db, fs_artifacts):
    runs = sweep(db, fs_artifacts)
    with telemetry.session() as session:
        summaries = run_jobs_scheduler(
            runs,
            worker_count=2,
            substrate="processes",
            use_checkpoints=True,
        )
        boots = session.metrics.counter("checkpoint_boots_total")
        assert boots.value() == len(PREFIXES)
    assert all(s["success"] for s in summaries)
    assert all(s["restored_boot"] for s in summaries)


def test_inline_boots_on_the_calling_thread_in_plan_order(
    db, fs_artifacts, monkeypatch
):
    """``substrate="inline"`` promises no job manager at all — the boot
    stage included, however many prefixes the sweep has."""
    runs = sweep(db, fs_artifacts)
    booted = []
    boot_checkpoint = tasks.boot_checkpoint

    def recording(params, inputs):
        booted.append((threading.get_ident(), params))
        return boot_checkpoint(params, inputs)

    monkeypatch.setattr(tasks, "boot_checkpoint", recording)
    summaries = run_jobs_scheduler(
        runs, worker_count=4, substrate="inline", use_checkpoints=True
    )
    assert booted == [
        (threading.get_ident(), runs[cohort[0]].params)
        for cohort in group_runs_by_prefix(runs).values()
    ]
    assert all(s["restored_boot"] for s in summaries)


def test_concurrent_same_prefix_submissions_boot_once(db, fs_artifacts):
    """Acceptance: a sweep whose runs all share one prefix produces
    exactly one boot, however many workers race over it."""
    runs = [
        make_run(
            db,
            fs_artifacts,
            cpu_type=cpu,
            num_cpus=1,
            memory_system="MI_example",
            memory_tech=tech,
        )
        for cpu, tech in (
            ("timing", "DDR3_1600_8x8"),
            ("timing", "DDR4_2400_16x4"),
            ("kvm", "DDR3_1600_8x8"),
            ("kvm", "DDR4_2400_16x4"),
        )
    ]
    with telemetry.session() as session:
        summaries = run_jobs_scheduler(
            runs, worker_count=4, use_checkpoints=True
        )
        boots = session.metrics.counter("checkpoint_boots_total")
        assert boots.value() == 1
    assert all(s["restored_boot"] for s in summaries)


def boot_stage(run, store):
    """The planner's boot stage for one run, on the inline executor."""
    return run_boot_stage([run], store, InputResolver(), tasks._Inline())


def test_boot_stage_skips_a_stored_prefix(db, fs_artifacts):
    """A prefix the store already holds is adopted, not booted again."""
    run = make_run(db, fs_artifacts)
    store = CheckpointStore(db)
    (checkpoint,) = boot_stage(run, store).values()
    assert checkpoint is not None
    with telemetry.session() as session:
        assert boot_stage(run, store) == {run.prefix: checkpoint}
        boots = session.metrics.counter("checkpoint_boots_total")
        assert boots.value() == 0


def test_boot_stage_failure_degrades_to_full_boots(
    db, fs_artifacts, monkeypatch
):
    """A prefix whose boot fails the fault model stores nothing; its
    variants fall back to booting in full — degradation, never
    escalation."""
    run = make_run(
        db,
        fs_artifacts,
        cpu_type="kvm",
        num_cpus=2,
        memory_system="classic",
        benchmark=None,
    )
    store = CheckpointStore(db)
    # timing + classic + 2 CPUs is unsupported, so the boot job fails.
    monkeypatch.setattr("repro.art.run.BOOT_CPU", "timing")
    with telemetry.session() as session:
        # Nothing is stored, so a later stage attempts the boot again.
        for _ in range(2):
            assert boot_stage(run, store) == {run.prefix: None}
        boots = session.metrics.counter("checkpoint_boots_total")
        assert boots.value() == 2
    assert store.lookup(run.prefix) is None
    with telemetry.session() as session:
        summary = run.run(checkpoint_store=store)
        misses = session.metrics.counter("checkpoint_misses_total")
        assert misses.value(reason="absent") == 1
    assert summary["success"]
    assert not summary["restored_boot"]
