"""Tests for the multiprocessing-backed ProcessPool substrate.

Job targets are referenced by dotted path and resolved inside freshly
spawned workers, so every target used here is a real module-level
function (stdlib ones where possible, :mod:`tests.helpers` targets for
simulation-shaped work).
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import telemetry
from repro.common.errors import StateError, ValidationError
from repro.scheduler.procpool import (
    JobEnvelope,
    ProcessPool,
    WorkerJobError,
)
from tests.helpers import events_of, map_envelopes, result_of


def test_envelope_requires_dotted_path_target():
    with pytest.raises(ValidationError):
        JobEnvelope(target="not_a_dotted_path")


def test_pool_requires_workers():
    with pytest.raises(ValidationError):
        ProcessPool(workers=0)


def test_submit_and_result():
    with ProcessPool(workers=2) as pool:
        handle = pool.submit(
            JobEnvelope(target="math:factorial", args=(5,))
        )
        assert result_of(handle, 60) == 120
        assert handle.ready()
        assert handle.worker is not None


def test_map_envelopes_preserves_order():
    envelopes = [
        JobEnvelope(target="math:factorial", args=(n,)) for n in range(6)
    ]
    with ProcessPool(workers=3) as pool:
        assert map_envelopes(pool, envelopes, timeout=60) == [
            1, 1, 2, 6, 24, 120,
        ]


def test_worker_error_propagates_as_worker_job_error():
    with ProcessPool(workers=1) as pool:
        handle = pool.submit(
            JobEnvelope(target="operator:truediv", args=(1, 0))
        )
        with pytest.raises(WorkerJobError) as excinfo:
            result_of(handle, 60)
        assert "ZeroDivisionError" in str(excinfo.value)
        assert handle.ready()


def test_closed_pool_rejects_submission():
    pool = ProcessPool(workers=1)
    pool.shutdown()
    with pytest.raises(StateError):
        pool.submit(JobEnvelope(target="math:factorial", args=(3,)))


def test_unpicklable_return_value_fails_the_job_not_the_worker():
    """The worker survives a result it cannot ship: one delivery, and
    the error names the pickling failure instead of a "lost" job."""
    with telemetry.session() as active:
        with ProcessPool(workers=1) as pool:
            handle = pool.submit(JobEnvelope(target="threading:Lock"))
            with pytest.raises(WorkerJobError, match="pickle"):
                result_of(handle, 60)
        dispatches = events_of(active.events, "procpool.dispatch")
        assert [e["attributes"]["delivery"] for e in dispatches] == [1]
        lost = active.metrics.counter("procpool_workers_lost_total")
        assert lost.value() == 0


def test_jobs_run_in_separate_processes():
    with ProcessPool(workers=2) as pool:
        handle = pool.submit(JobEnvelope(target="os:getpid"))
        worker_pid = result_of(handle, 60)
        assert worker_pid != os.getpid()


def test_boot_shard_job_runs_in_worker():
    envelope = JobEnvelope(
        target="tests.helpers:boot_shard_job",
        args=({"index": 7, "repeats": 2},),
    )
    with ProcessPool(workers=1) as pool:
        outcome = result_of(pool.submit(envelope), 120)
    assert outcome["index"] == 7
    assert outcome["repeats"] == 2
    assert outcome["stats_fingerprint"]
    assert outcome["sim_seconds"] > 0


def test_crashed_worker_job_is_redelivered():
    """SIGKILL mid-job: the sentinel fires, a respawned worker gets the
    job again, and the handle resolves to a good result within one
    worker spawn of the kill — no timer stands between them."""
    sentinel = os.path.join(
        os.environ.get("PYTEST_TMPDIR", "/tmp"),
        f"procpool-redeliver-{os.getpid()}-{time.monotonic_ns()}",
    )
    envelope = JobEnvelope(
        target="tests.helpers:kill_once_job",
        args=({"index": 0, "repeats": 1, "sentinel": sentinel},),
    )
    try:
        with ProcessPool(workers=1) as pool:
            outcome = result_of(pool.submit(envelope), 120)
            recovered = time.time()
        assert outcome["ok"]
        # The first delivery stamps the file and then kills its worker.
        assert recovered - os.path.getmtime(sentinel) < 1.0
    finally:
        if os.path.exists(sentinel):
            os.unlink(sentinel)


def test_redelivery_budget_dead_letters(monkeypatch):
    """A job that kills its worker on every delivery is eventually
    failed instead of respawning workers forever."""
    monkeypatch.setattr(
        "repro.scheduler.procpool.DEFAULT_MAX_REDELIVERIES", 1
    )
    envelope = JobEnvelope(target="os:abort")
    with ProcessPool(workers=1) as pool:
        handle = pool.submit(envelope)
        with pytest.raises(WorkerJobError) as excinfo:
            result_of(handle, 60)
    assert "redelivery budget" in str(excinfo.value)


def test_worker_telemetry_merges_into_parent_session():
    envelopes = [
        JobEnvelope(
            target="tests.helpers:telemetry_probe_job",
            args=({"index": i, "amount": 2},),
            telemetry=True,
        )
        for i in range(3)
    ]
    with telemetry.session() as active:
        with ProcessPool(workers=2) as pool:
            results = map_envelopes(pool, envelopes, timeout=120)
        assert all(r["ok"] for r in results)
        counter = active.metrics.counter("probe_total")
        assert counter.value() == pytest.approx(6.0)
        histogram = active.metrics.histogram("probe_seconds")
        sample = histogram.samples()[0]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(6.0)
        probe_events = events_of(active.events, "probe.ran")
        assert len(probe_events) == 3
        assert all(
            e["attributes"]["worker"].startswith("procpool-worker-")
            for e in probe_events
        )
        assert {e["attributes"]["index"] for e in probe_events} == {0, 1, 2}
        # pool bookkeeping is visible too
        dispatches = events_of(active.events, "procpool.dispatch")
        assert len(dispatches) >= 3


def test_sequential_round_trips_are_event_driven():
    """50 submit→result round trips of a trivial envelope: a result
    completes its handle when it is readable, not at the next poll tick
    (a 100 ms result poll needs >= 5 s here)."""
    with ProcessPool(workers=1) as pool:
        assert result_of(pool.submit(JobEnvelope(target="os:getpid")), 60)
        started = time.monotonic()
        for n in range(50):
            handle = pool.submit(
                JobEnvelope(target="math:factorial", args=(n % 5,))
            )
            result_of(handle, 60)
        assert time.monotonic() - started < 2.5


def test_a_pool_starts_no_thread():
    """The caller drives the pool: the process's threads are the same
    before it starts, while it runs and after it shuts down."""
    before = set(threading.enumerate())
    pool = ProcessPool(workers=2)
    try:
        assert result_of(pool.submit(JobEnvelope(target="os:getpid")), 60)
        assert set(threading.enumerate()) == before
    finally:
        pool.shutdown()
    assert set(threading.enumerate()) == before


def test_shutdown_fails_outstanding_handles_promptly():
    """shutdown() with a job in flight and jobs pending neither waits
    for the worker nor leaves a waiter hanging on an abandoned handle."""
    pool = ProcessPool(workers=1)
    warm = pool.submit(JobEnvelope(target="os:getpid"))
    assert result_of(warm, 60)  # worker is up: the sleeper ships now
    handles = [pool.submit(JobEnvelope(target="time:sleep", args=(10,)))]
    handles += [
        pool.submit(JobEnvelope(target="math:factorial", args=(n,)))
        for n in range(3)
    ]
    time.sleep(0.2)
    started = time.monotonic()
    pool.shutdown()
    assert time.monotonic() - started < 1.0
    for handle in handles:
        with pytest.raises(WorkerJobError) as excinfo:
            result_of(handle, 1)
        assert "shut down" in str(excinfo.value)
    assert all(handle.ready() for handle in handles)
    assert result_of(warm, 1)  # completed handles keep their value


def test_killed_idle_worker_is_replaced_before_the_next_job():
    """A worker that dies idle is replaced at the next submit or wait:
    the next job runs in a new process, one worker is counted lost, and
    nothing is redelivered — the seat held no job."""
    with telemetry.session() as active:
        with ProcessPool(workers=1) as pool:
            first = result_of(pool.submit(JobEnvelope(target="os:getpid")), 60)
            os.kill(first, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while first in [c.pid for c in multiprocessing.active_children()]:
                assert time.monotonic() < deadline, "worker not dead"
                time.sleep(0.01)
            second = result_of(pool.submit(JobEnvelope(target="os:getpid")), 60)
        assert second != first
        lost = active.metrics.counter("procpool_workers_lost_total")
        assert lost.value() == 1
        assert events_of(active.events, "procpool.redelivered") == []


def test_roundtrip_histogram_recorded_when_telemetry_is_on():
    with telemetry.session() as active:
        with ProcessPool(workers=1) as pool:
            map_envelopes(pool, 
                [JobEnvelope(target="os:getpid") for _ in range(3)],
                timeout=60,
            )
        sample = active.metrics.histogram(
            "procpool_roundtrip_seconds"
        ).samples()[0]
    assert sample["count"] == 3
    assert sample["sum"] > 0
