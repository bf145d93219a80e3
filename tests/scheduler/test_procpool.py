"""Tests for the multiprocessing-backed ProcessPool substrate.

Job targets are referenced by dotted path and resolved inside the
worker, a fork of the test process, so every target used here is a
real module-level function (stdlib ones where possible,
:mod:`tests.helpers` targets for simulation-shaped work).
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro import chaos, telemetry
from repro.common.errors import StateError, ValidationError
from repro.scheduler.procpool import (
    JobEnvelope,
    ProcessPool,
    WorkerJobError,
)
from tests.helpers import events_of, map_envelopes, result_of

#: The repository root: a subprocess test runs its script from there.
ROOT = Path(__file__).resolve().parents[2]


def run_script(script, tmp_path):
    """Run ``script`` as ``python -`` (its source on stdin) with this
    tree importable; its stripped stdout.  The output goes through a
    file, not a pipe: a worker the script leaves behind holds no pipe
    this test would wait on."""
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    out = tmp_path / "stdout.txt"
    with open(out, "w", encoding="utf-8") as stdout:
        done = subprocess.run(
            [sys.executable, "-"],
            input=textwrap.dedent(script),
            stdout=stdout,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=60,
        )
    assert done.returncode == 0, out.read_text()
    return out.read_text().strip()


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
    """The worker survives a result it cannot ship: the error names the
    pickling failure instead of a "lost" job."""
    with telemetry.session() as active:
        with ProcessPool(workers=1) as pool:
            handle = pool.submit(JobEnvelope(target="threading:Lock"))
            with pytest.raises(WorkerJobError, match="pickle"):
                result_of(handle, 60)
        assert len(events_of(active.events, "procpool.dispatch")) == 1
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


def test_crashed_worker_job_is_redelivered(tmp_path):
    """SIGKILL mid-job: the job the seat held fails, naming the worker
    and its exit code, within a second of the kill (no timer).  The pool
    never reruns a job: redelivery is the caller's resubmit, which a
    respawned worker runs to a good result."""
    sentinel = tmp_path / "killed-once"
    envelope = JobEnvelope(
        target="tests.helpers:kill_once_job",
        args=({"index": 0, "repeats": 1, "sentinel": str(sentinel)},),
    )
    cause = r"lost with worker procpool-worker-0 \(exit code -9\)"
    with telemetry.session() as active:
        with ProcessPool(workers=1) as pool:
            handle = pool.submit(envelope)
            with pytest.raises(WorkerJobError, match=cause):
                result_of(handle, 120)
            assert time.time() - sentinel.stat().st_mtime < 1.0
            assert result_of(pool.submit(envelope), 120)["ok"]
            assert pool._slots[0].process.pid != int(sentinel.read_text())
        jobs = active.metrics.counter("procpool_jobs_total")
        assert jobs.value(outcome="lost") == 1
        (lost,) = events_of(active.events, "procpool.worker_lost")
        assert lost["attributes"]["task_id"] == handle.task_id


def test_redelivery_budget_dead_letters():
    """A job that kills its worker is failed on its first loss instead
    of respawning workers forever: the budget is zero redeliveries."""
    # Not os.abort: the fork inherits pytest's faulthandler, which would
    # print a fatal-error dump.
    envelope = JobEnvelope(target="os:_exit", args=(134,))
    with telemetry.session() as active:
        with ProcessPool(workers=1) as pool:
            handle = pool.submit(envelope)
            with pytest.raises(WorkerJobError, match=r"\(exit code 134\)"):
                result_of(handle, 60)
        assert len(events_of(active.events, "procpool.dispatch")) == 1
        lost = active.metrics.counter("procpool_workers_lost_total")
        assert lost.value() == 1


def test_a_result_flushed_before_death_still_wins():
    """Salvage: a worker killed after flushing its result, before the
    pool read it, still completes its job with that result."""
    with telemetry.session() as active:
        with ProcessPool(workers=1) as pool:
            handle = pool.submit(JobEnvelope(target="os:getpid"))
            (slot,) = pool._slots
            pid = slot.process.pid
            assert slot.outbox.poll(10)  # flushed, not yet read
            os.kill(pid, signal.SIGKILL)
            slot.process.join()
            assert pool.wait_any([handle]) == (handle, pid, None, False)
        lost = active.metrics.counter("procpool_workers_lost_total")
        assert lost.value() == 1
        (event,) = events_of(active.events, "procpool.worker_lost")
        assert event["attributes"]["task_id"] is None


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
    the next job runs in a new process and one worker is counted lost."""
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


def test_a_pool_driven_from_stdin_runs_its_jobs(tmp_path):
    """A script with no file (``python - <<EOF``) drives a pool: the
    seat is a fork, so nothing re-runs the script's ``__main__``."""
    out = run_script(
        """
        import os
        from repro.scheduler.procpool import JobEnvelope, ProcessPool
        with ProcessPool(workers=1) as pool:
            worker = pool.submit(JobEnvelope("os:getpid")).result()
        print(worker, os.getpid())
        """,
        tmp_path,
    )
    worker, me = out.split()
    assert worker != me


def test_a_seat_is_a_fork_of_its_pool():
    """A module only this test has imported is loaded in the worker."""
    import xml.dom.minidom  # noqa: F401

    with ProcessPool(workers=1) as pool:
        handle = pool.submit(
            JobEnvelope("tests.helpers:is_loaded", args=("xml.dom.minidom",))
        )
        assert result_of(handle, 60) is True


@pytest.fixture
def quiet_injector():
    yield chaos.install(chaos.ChaosInjector(seed=0))
    chaos.uninstall()


def test_a_worker_drops_the_parents_chaos_and_telemetry(quiet_injector):
    """A forked worker starts as a new interpreter would: no chaos
    injector and, for a ``telemetry=False`` job, no session — whatever
    its parent had installed when it forked."""
    with telemetry.session():
        with ProcessPool(workers=1) as pool:
            handle = pool.submit(
                JobEnvelope("tests.helpers:inherited_switches")
            )
            assert result_of(handle, 60) == (False, False)


def _gone(pid):
    """Whether process ``pid`` has exited (a zombie no one reaps counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


def test_workers_exit_when_their_parent_dies_without_shutdown(tmp_path):
    """A worker reads EOF once its parent is gone — it holds no copy
    of the parent's end of its own inbox — and exits, instead of
    waiting forever for a job."""
    out = run_script(
        """
        import os
        from repro.scheduler.procpool import JobEnvelope, ProcessPool
        pool = ProcessPool(workers=2)
        pool.submit(JobEnvelope("os:getpid")).result()
        print(*[slot.process.pid for slot in pool._slots], flush=True)
        os._exit(0)  # no atexit: nothing terminates the daemon workers
        """,
        tmp_path,
    )
    pids = [int(pid) for pid in out.split()]
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 10
        while not all(_gone(pid) for pid in pids):
            assert time.monotonic() < deadline, "orphaned workers alive"
            time.sleep(0.02)
    finally:
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)
