"""Chaos suite for the process substrate: workers die, shards finish.

A SIGKILLed worker runs no handler, but its death is an event the
pool's wait loop blocks on: the seat is respawned and the job it held
is redelivered (docs/scaling.md); a worker that outlives its job's
deadline is killed by the pool itself and nothing is redelivered.
These tests kill workers two ways —
deterministically from inside the job (:func:`tests.helpers.
kill_once_job`, the no-race script) and from the parent mid-flight —
and assert the shard completes with results identical to an
uninterrupted run.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import chaos, telemetry
from repro.chaos import FaultRule
from repro.common.errors import FaultInjectedError
from repro.scheduler.procpool import (
    DEFAULT_MAX_REDELIVERIES,
    JobEnvelope,
    ProcessPool,
    WorkerJobError,
)
from tests.helpers import boot_shard_job, events_of, map_envelopes, result_of


def _kill_a_worker():
    """SIGKILL one live worker from the parent, mid-flight."""
    deadline = time.monotonic() + 10
    pids = []
    while not pids:
        assert time.monotonic() < deadline, "no live workers to kill"
        time.sleep(0.02)
        pids = [child.pid for child in multiprocessing.active_children()]
    os.kill(pids[0], signal.SIGKILL)


def _shard(count, repeats=1, telemetry_on=False):
    return [
        JobEnvelope(
            target="tests.helpers:boot_shard_job",
            args=({"index": i, "repeats": repeats},),
            telemetry=telemetry_on,
        )
        for i in range(count)
    ]


def test_sigkilled_worker_shard_completes_with_identical_stats(tmp_path):
    """One job SIGKILLs its worker on first delivery; the whole shard
    must still complete, and the killed job's stats fingerprint must be
    bit-identical to an uninterrupted execution of the same work."""
    baseline = boot_shard_job({"index": 0, "repeats": 1})
    assert baseline["ok"]

    sentinel = str(tmp_path / "killed-once")
    shard = [
        JobEnvelope(
            target="tests.helpers:kill_once_job",
            args=({"index": 0, "repeats": 1, "sentinel": sentinel},),
        )
    ] + _shard(8)[1:]

    with telemetry.session() as active:
        with ProcessPool(workers=2) as pool:
            results = map_envelopes(pool, shard, timeout=120)

        assert os.path.exists(sentinel)  # the kill really happened
        assert len(results) == 8
        assert all(r["ok"] for r in results)
        # Identical inputs -> identical stats, crash or no crash.
        fingerprints = {r["stats_fingerprint"] for r in results}
        assert fingerprints == {baseline["stats_fingerprint"]}

        # The crash left its evidence trail in the parent's telemetry.
        assert events_of(active.events, "procpool.worker_lost")
        redelivered = events_of(active.events, "procpool.redelivered")
        assert len(redelivered) >= 1
        assert (
            active.metrics.counter("procpool_workers_lost_total").value()
            >= 1
        )
        assert (
            active.metrics.counter("procpool_redeliveries_total").value()
            >= 1
        )
        # The redelivered job was delivered at least twice.
        deliveries = [
            e["attributes"]["delivery"]
            for e in events_of(active.events, "procpool.dispatch")
        ]
        assert max(deliveries) >= 2


def test_parent_side_sigkill_mid_flight_shard_completes():
    """Killing a live worker PID from the parent — the untimed, racy
    variant of the crash — still drains the shard correctly."""
    shard = _shard(6, repeats=50)
    with ProcessPool(workers=2) as pool:
        handles = [pool.submit(envelope) for envelope in shard]
        _kill_a_worker()
        results = [result_of(handle, 120) for handle in handles]
    assert [r["index"] for r in results] == list(range(6))
    assert all(r["ok"] for r in results)
    assert len({r["stats_fingerprint"] for r in results}) == 1


def test_kill_and_refused_submit_end_every_handle_within_budget():
    """``procpool.submit`` raising once *and* a parent-side SIGKILL in
    the same shard: the refused envelope left nothing behind in the
    pool, and every handle that exists ends in a result — never a hang
    — inside the redelivery budget."""
    rules = [FaultRule("procpool.submit", after=2, times=1)]
    handles, refused = [], []
    with telemetry.session() as active, chaos.injected(seed=5, rules=rules):
        with ProcessPool(workers=2) as pool:
            for envelope in _shard(6, repeats=50):
                try:
                    handles.append(pool.submit(envelope))
                except FaultInjectedError:
                    refused.append(envelope.task_id)
            _kill_a_worker()
            results = [result_of(handle, 120) for handle in handles]
        deliveries = {}
        for event in events_of(active.events, "procpool.dispatch"):
            task_id = event["attributes"]["task_id"]
            deliveries[task_id] = event["attributes"]["delivery"]
    assert len(refused) == 1
    assert [r["index"] for r in results] == [0, 1, 3, 4, 5]
    assert all(r["ok"] for r in results)
    assert set(deliveries) == {handle.task_id for handle in handles}
    assert max(deliveries.values()) <= DEFAULT_MAX_REDELIVERIES + 1


def test_wedged_worker_is_killed_at_its_deadline_not_redelivered():
    """The deadline twin of the SIGKILL case: a job that outlives
    ``JobEnvelope.timeout`` fails as timed out at its deadline (no timer
    but the pool's own wait), its worker is killed and the seat comes
    back through the same recovery path — with nothing to redeliver,
    because a job that wedged one worker would wedge the next."""
    with telemetry.session() as active:
        with ProcessPool(workers=1) as pool:
            wedged_pid = result_of(
                pool.submit(JobEnvelope(target="os:getpid")), 60
            )
            started = time.monotonic()
            handle = pool.submit(
                JobEnvelope(target="time:sleep", args=(30,), timeout=0.3)
            )
            assert pool.wait_any([handle])[0] is handle
            assert 0.3 <= time.monotonic() - started < 1.0
            assert handle.timed_out
            with pytest.raises(WorkerJobError, match="timed out after 0.3s"):
                handle.result()
            # The seat is back: the next job finds a new, live worker.
            next_pid = result_of(
                pool.submit(JobEnvelope(target="os:getpid")), 60
            )
        assert next_pid != wedged_pid
        with pytest.raises(ProcessLookupError):
            os.kill(wedged_pid, 0)
        (lost,) = events_of(active.events, "procpool.worker_lost")
        assert lost["attributes"] == {
            "worker": "procpool-worker-0", "pid": wedged_pid, "task_id": None,
        }
        assert events_of(active.events, "procpool.redelivered") == []
        deliveries = [
            e["attributes"]["delivery"]
            for e in events_of(active.events, "procpool.dispatch")
            if e["attributes"]["task_id"] == handle.task_id
        ]
        assert deliveries == [1]
        jobs = active.metrics.counter("procpool_jobs_total")
        assert jobs.value(outcome="timeout") == 1
