"""Chaos suite for the process substrate: workers die, every job ends.

A SIGKILLed worker runs no handler, but its death is an event the
pool's wait loop blocks on: the seat is respawned and the job it held
fails, naming the worker and its exit code (docs/scaling.md); a worker
that outlives its job's deadline is killed by the pool itself.  A
sweep's one retry is ``resume(retry_failures=True)``.  Here workers
die inside a simulation (:func:`tests.helpers.kill_simulations_once`,
no race) and at the parent's hand, mid-flight.
"""

import multiprocessing
import os
import re
import signal
import time

import pytest

from repro import chaos, telemetry
from repro.art import ArtifactDB
from repro.chaos import FaultRule
from repro.common.errors import FaultInjectedError
from repro.scheduler.procpool import JobEnvelope, ProcessPool, WorkerJobError
from tests.art.test_launch_share import make_experiment
from tests.helpers import events_of, kill_simulations_once, result_of


def _kill_a_worker():
    """SIGKILL one live worker from the parent, mid-flight."""
    deadline = time.monotonic() + 10
    pids = []
    while not pids:
        assert time.monotonic() < deadline, "no live workers to kill"
        time.sleep(0.02)
        pids = [child.pid for child in multiprocessing.active_children()]
    os.kill(pids[0], signal.SIGKILL)


def _shard(count):
    target = "tests.helpers:boot_shard_job"
    return [
        JobEnvelope(target, ({"index": i, "repeats": 50},))
        for i in range(count)
    ]


def _ended(handles):
    """Wait out every handle: at most one lost with the killed worker,
    and each result its own job's, with one stats fingerprint."""
    results = []
    for handle in handles:
        try:
            result = result_of(handle, 120)
        except WorkerJobError as error:
            assert "lost with worker" in str(error)
            continue
        assert result["ok"]
        assert result["index"] == handle.envelope.args[0]["index"]
        results.append(result)
    assert len(results) >= len(handles) - 1
    assert len({result["stats_fingerprint"] for result in results}) == 1


def test_a_sigkilled_simulation_fails_its_run_and_resume_retries_it(
    tmp_path, monkeypatch, runs_digest
):
    """One simulation SIGKILLs its worker: that run alone ends ``failed``,
    saying which worker died and how, and a retrying resume leaves the
    documents an uninterrupted sweep writes."""
    kill_simulations_once(monkeypatch, str(tmp_path / "killed-once"))
    apps = ("ferret", "vips", "dedup")
    db = ArtifactDB()
    experiment = make_experiment(db, apps=apps, cpus=(1,))
    runs = experiment.create_runs()
    experiment.launch(workers=2, substrate="processes")
    docs = [db.get_run(run.run_id) for run in runs]
    assert sorted(doc["status"] for doc in docs) == ["done", "done", "failed"]
    (failed,) = [doc for doc in docs if doc["status"] == "failed"]
    assert re.fullmatch(
        r"job \S+ lost with worker procpool-worker-\d \(exit code -9\)",
        failed["results"]["error"],
    )

    experiment.resume(workers=2, substrate="processes", retry_failures=True)
    assert [db.get_run(run.run_id)["status"] for run in runs] == ["done"] * 3
    digest = runs_digest(db.database)
    # A second resume finds nothing owed and changes nothing.
    assert experiment.pending_runs(retry_failures=True) == []
    experiment.resume(workers=2, substrate="processes", retry_failures=True)
    assert runs_digest(db.database) == digest
    clean = ArtifactDB()
    make_experiment(clean, apps=apps, cpus=(1,)).launch(substrate="inline")
    assert digest == runs_digest(clean.database)


def test_parent_side_sigkill_mid_flight_shard_completes():
    """Killing a live worker PID from the parent — the untimed, racy
    variant of the crash — still ends every handle of the shard."""
    with ProcessPool(workers=2) as pool:
        handles = [pool.submit(envelope) for envelope in _shard(6)]
        _kill_a_worker()
        _ended(handles)


def test_kill_and_refused_submit_end_every_handle_within_budget():
    """``procpool.submit`` raising once *and* a parent-side SIGKILL in
    the same shard: the refused envelope left nothing behind in the
    pool, and every handle that exists ends within budget, never hangs."""
    rules = [FaultRule("procpool.submit", after=2, times=1)]
    handles, refused = [], []
    with telemetry.session() as active, chaos.injected(seed=5, rules=rules):
        with ProcessPool(workers=2) as pool:
            for envelope in _shard(6):
                try:
                    handles.append(pool.submit(envelope))
                except FaultInjectedError:
                    refused.append(envelope.task_id)
            _kill_a_worker()
            _ended(handles)
        dispatched = {
            event["attributes"]["task_id"]
            for event in events_of(active.events, "procpool.dispatch")
        }
    assert len(refused) == 1
    assert [h.envelope.args[0]["index"] for h in handles] == [0, 1, 3, 4, 5]
    assert dispatched == {handle.task_id for handle in handles}


def test_wedged_worker_is_killed_at_its_deadline():
    """The deadline twin of the SIGKILL case: a job that outlives
    ``JobEnvelope.timeout`` fails as timed out at its deadline (no timer
    but the pool's own wait), its worker is killed and the seat comes
    back through the same recovery path, holding nothing."""
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
        jobs = active.metrics.counter("procpool_jobs_total")
        assert jobs.value(outcome="timeout") == 1
