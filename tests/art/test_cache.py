"""Tests for the fingerprint result cache: memoized relaunches,
planned coalescing of duplicate runs, and invalidation cascades."""

import pytest

from repro import telemetry
from repro.art import (
    ArtifactDB,
    Experiment,
    Gem5Run,
    RunCache,
    run_jobs_scheduler,
)
from repro.art.run import RunStatus
from repro.art.tasks import SUBSTRATES

from tests.art.test_launch_share import make_experiment, stack_artifacts
from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.helpers import WEDGED_CPUS, wedge_simulations


@pytest.fixture
def db():
    return ArtifactDB()


def count_simulations(monkeypatch):
    """Patch the execution slow path — a ``begin`` that opens an
    attempt; cache hits must never reach it."""
    executed = []
    original = Gem5Run.begin

    def recording(self, *args, **kwargs):
        attempt = original(self, *args, **kwargs)
        if attempt is not None:
            executed.append(self.run_id)
        return attempt

    monkeypatch.setattr(Gem5Run, "begin", recording)
    return executed


# ------------------------------------------------------------ memoization


def test_identical_run_adopts_cached_result(db, fs_artifacts, monkeypatch):
    first = make_run(db, fs_artifacts)
    first.run()
    executed = count_simulations(monkeypatch)

    second = make_run(db, fs_artifacts)
    with telemetry.session() as session:
        summary = second.run()

    assert executed == []  # zero simulator executions
    assert summary["success"]
    assert second.status is RunStatus.DONE
    doc = db.get_run(second.run_id)
    assert doc["status"] == "done"
    assert doc["cache_hit"] is True
    assert doc["cached_from"] == first.run_id
    hits = session.metrics.counter("runcache_hits_total")
    assert hits.value(kind="fs") == 1
    kinds = [r["kind"] for r in session.events.records()]
    assert "runcache.hit" in kinds


def test_no_cache_forces_re_execution(db, fs_artifacts, monkeypatch):
    """A forced run neither consults nor coalesces; its ``DONE`` document
    is a producer like any other's, but never displaces an earlier one."""
    first = make_run(db, fs_artifacts)
    first.run(use_cache=False)  # on an empty cache: the producer
    executed = count_simulations(monkeypatch)
    second = make_run(db, fs_artifacts)
    second.run(use_cache=False)
    third = make_run(db, fs_artifacts)
    third.run()
    assert executed == [second.run_id]
    assert db.get_run(third.run_id)["cached_from"] == first.run_id


def test_different_params_miss_the_cache(db, fs_artifacts, monkeypatch):
    make_run(db, fs_artifacts, num_cpus=1).run()
    executed = count_simulations(monkeypatch)
    other = make_run(db, fs_artifacts, num_cpus=8)
    with telemetry.session() as session:
        other.run()
    assert executed == [other.run_id]
    misses = session.metrics.counter("runcache_misses_total")
    assert misses.value(reason="absent") == 1


def test_only_done_runs_are_cached(db, fs_artifacts):
    """A producer is a ``done`` run that executed: a failed, timed-out,
    adopting or revoked document never serves, earlier though it is.
    The earliest finish wins, ties by ``_id``; invalidating revokes all."""
    run = make_run(db, fs_artifacts)
    run.run()
    doc = db.get_run(run.run_id)
    for extra in ({"status": "failed"}, {"status": "timed_out"},
                  {"cache_hit": True}, {"cache_revoked": "invalidated"}):
        db.put_run(dict(doc, _id=str(extra), finished_at_wall="", **extra))
    db.put_run(dict(doc, _id="!", finished_at_wall="~"))  # finished last
    db.put_run(dict(doc, _id="0"))  # finished with ``run``, a lower id
    cache = RunCache(db)
    assert cache.lookup(run.fingerprint)["_id"] == "0"
    assert [entry["_id"] for entry in cache.entries()] == ["0"]
    assert cache.invalidate(run.fingerprint) == 1
    assert cache.lookup(run.fingerprint) is None


def test_simulation_level_failures_are_memoizable(db, fs_artifacts,
                                                  monkeypatch):
    """A recorded kernel panic is an outcome, not a retryable error:
    re-running the identical point adopts it."""
    failing = dict(num_cpus=2, memory_system="classic", benchmark=None)
    first = make_run(db, fs_artifacts, **failing)
    summary = first.run()
    assert not summary["success"]
    assert first.status is RunStatus.DONE

    executed = count_simulations(monkeypatch)
    second = make_run(db, fs_artifacts, **failing)
    adopted = second.run()
    assert executed == []
    assert not adopted["success"]
    assert adopted["simulation_status"] == summary["simulation_status"]


# ------------------------------------------------- experiment relaunches


def test_relaunched_experiment_executes_nothing(db, monkeypatch):
    """The acceptance bar: an identical experiment relaunched against a
    warm database is satisfied entirely from the cache."""
    make_experiment(db, apps=("ferret", "vips")).launch(substrate="inline")

    executed = count_simulations(monkeypatch)
    relaunch = make_experiment(db, apps=("ferret", "vips"))
    with telemetry.session() as session:
        summaries = relaunch.launch(substrate="inline")

    assert executed == []
    assert len(summaries) == 4
    assert all(s["success"] for s in summaries)
    hits = session.metrics.counter("runcache_hits_total")
    assert hits.value(kind="fs") == 4


def test_relaunch_with_no_cache_simulates_every_point(db, monkeypatch):
    make_experiment(db).launch(substrate="inline")
    executed = count_simulations(monkeypatch)
    relaunch = make_experiment(db)
    relaunch.launch(substrate="inline", use_cache=False)
    assert len(executed) == 2


# ------------------------------------------------------------ coalescing


def test_concurrent_identical_runs_coalesce(db, fs_artifacts, monkeypatch):
    executed = count_simulations(monkeypatch)
    runs = [make_run(db, fs_artifacts) for _ in range(6)]
    with telemetry.session() as session:
        summaries = run_jobs_scheduler(runs, worker_count=3)

    assert len(executed) == 1  # one leader simulated; five adopted
    assert len(summaries) == 6
    assert all(s["success"] for s in summaries)
    # Every run document records its outcome, leader and followers alike.
    for run in runs:
        assert db.get_run(run.run_id)["status"] == "done"
    hits = session.metrics.counter("runcache_hits_total")
    assert hits.value(kind="fs") == 5


def test_distinct_fingerprints_do_not_coalesce(db, fs_artifacts,
                                               monkeypatch):
    executed = count_simulations(monkeypatch)
    runs = [
        make_run(
            db, fs_artifacts,
            num_cpus=cpus, memory_system="MESI_Two_Level",
        )
        for cpus in (1, 2, 4)
    ]
    summaries = run_jobs_scheduler(runs, worker_count=3)
    assert sorted(executed) == sorted(run.run_id for run in runs)
    assert all(s["success"] for s in summaries)


@pytest.mark.parametrize("workers", (1, 3))
def test_coalescing_is_decided_from_the_run_list(db, fs_artifacts, workers):
    """Leadership is the first index with a fingerprint — not whoever
    is still in flight at submit time — so the count is exact
    (duplicates - distinct) whatever the worker count."""
    runs = [
        make_run(db, fs_artifacts, num_cpus=cpus, cpu_type="atomic")
        for cpus in (1, 2, 1, 2, 1)
    ]
    with telemetry.session() as session:
        run_jobs_scheduler(runs, worker_count=workers)
        coalesced = session.metrics.counter("runcache_coalesced_total")
        assert coalesced.value() == 3
    assert [db.get_run(run.run_id).get("cached_from") for run in runs] == [
        None, None, runs[0].run_id, runs[1].run_id, runs[0].run_id,
    ]


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_followers_of_a_failed_leader_end_on_their_own_records(
    db, fs_artifacts, substrate
):
    """A leader that caches nothing leaves nothing to adopt: each
    follower runs like any other point and records its own failure."""
    runs = [
        make_run(db, fs_artifacts, benchmark="not-installed")
        for _ in range(3)
    ]
    assert len({run.fingerprint for run in runs}) == 1
    with telemetry.session() as session:
        summaries = run_jobs_scheduler(
            runs, worker_count=1, substrate=substrate
        )
        coalesced = session.metrics.counter("runcache_coalesced_total")
        assert coalesced.value() == 0
    docs = [db.get_run(run.run_id) for run in runs]
    assert [doc["status"] for doc in docs] == ["failed"] * 3
    for doc in docs:
        assert "not-installed" in doc["results"]["error"]
    assert [s["run_id"] for s in summaries] == [run.run_id for run in runs]
    assert not any(s["success"] for s in summaries)


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_followers_of_a_timed_out_leader_run_themselves(
    db, fs_artifacts, monkeypatch, substrate
):
    wedge_simulations(monkeypatch, seconds=0.3)
    runs = [
        make_run(db, fs_artifacts, num_cpus=WEDGED_CPUS, timeout=0.2)
        for _ in range(3)
    ]
    assert len({run.fingerprint for run in runs}) == 1
    summaries = run_jobs_scheduler(
        runs, worker_count=1, substrate=substrate
    )
    docs = [db.get_run(run.run_id) for run in runs]
    assert [doc["status"] for doc in docs] == ["timed_out"] * 3
    assert all("started_at_wall" in doc for doc in docs)  # each one ran
    assert not any(doc.get("cache_hit") for doc in docs)
    assert [s["run_id"] for s in summaries] == [run.run_id for run in runs]
    assert all(s["timed_out"] for s in summaries)
    assert not any(s["success"] for s in summaries)
    assert {doc["results"]["error"] for doc in docs} == {
        "timed out after 0.2s"
    }


# ---------------------------------------------------------- invalidation


def test_invalidate_by_fingerprint(db, fs_artifacts, monkeypatch):
    run = make_run(db, fs_artifacts)
    run.run()
    cache = RunCache(db)
    assert cache.invalidate(run.fingerprint) == 1
    assert cache.lookup(run.fingerprint) is None
    executed = count_simulations(monkeypatch)
    again = make_run(db, fs_artifacts)
    again.run()
    assert executed == [again.run_id]


def test_invalidate_unknown_token_evicts_nothing(db):
    assert RunCache(db).invalidate("f" * 64) == 0


def test_invalidate_by_unambiguous_prefix(db, fs_artifacts, monkeypatch):
    """`cache ls` abbreviates fingerprints, so the abbreviation must be
    a usable invalidation token."""
    run = make_run(db, fs_artifacts)
    run.run()
    cache = RunCache(db)
    assert cache.invalidate(run.fingerprint[:12]) == 1
    assert cache.lookup(run.fingerprint) is None


def test_invalidate_ambiguous_prefix_refuses_to_guess(db, fs_artifacts):
    from repro.common.errors import ValidationError

    run = make_run(db, fs_artifacts)
    run.run()
    doc = db.get_run(run.run_id)
    cache = RunCache(db)
    # Two fingerprints sharing a prefix by construction.
    for digit in "01":
        db.put_run(dict(doc, _id=digit, fingerprint="abcd" + digit * 60))
    with pytest.raises(ValidationError):
        cache.invalidate("abcd")
    assert cache.lookup("abcd" + "0" * 60) is not None


def test_artifact_invalidation_cascades_to_dependents_only(db, monkeypatch):
    """Rebuilding one disk image re-runs exactly its dependents."""
    experiment = Experiment(db, "two-stacks")
    bionic = stack_artifacts(db, distro="ubuntu-18.04")
    focal = stack_artifacts(db, distro="ubuntu-20.04")
    experiment.add_stack("bionic", **bionic)
    experiment.add_stack("focal", **focal)
    experiment.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    experiment.sweep(benchmark=["ferret"], num_cpus=[1, 8])
    experiment.launch(substrate="inline")

    cache = RunCache(db)
    assert len(cache.entries()) == 4
    with telemetry.session() as session:
        evicted = cache.invalidate(bionic["disk_image"].hash)
    assert evicted == 2  # only the bionic points consumed that image
    revoked = db.runs.find({"cache_revoked": "invalidated"})
    assert all(bionic["disk_image"].hash in cache.tokens(d) for d in revoked)
    assert sorted(d["_id"] for d in revoked) == sorted(
        r["attributes"]["run_id"] for r in session.events.records()
        if r["kind"] == "runcache.invalidate")

    executed = count_simulations(monkeypatch)
    relaunch = Experiment(db, "two-stacks-relaunch")
    relaunch.add_stack("bionic", **bionic)
    relaunch.add_stack("focal", **focal)
    relaunch.fix(cpu_type="timing", memory_system="MESI_Two_Level")
    relaunch.sweep(benchmark=["ferret"], num_cpus=[1, 8])
    relaunch.launch(substrate="inline")
    # The two focal points adopt; the two invalidated bionic points
    # simulate again.
    assert len(executed) == 2


# ----------------------------------------------------------------- stats


def test_cache_stats_counts_entries_and_adoptions(db, fs_artifacts):
    make_run(db, fs_artifacts).run()
    make_run(db, fs_artifacts).run()  # adoption
    stats = RunCache(db).stats()
    assert stats["entries"] == 1
    assert stats["adoptions"] == 1
    assert stats["by_kind"] == {"fs": 1}
