"""Unit tests for the retry state machine, task leases (the process
pool's), and helper-thread leak tracking."""

import time

import pytest

from repro import telemetry
from repro.common.errors import StateError, ValidationError
from repro.scheduler import (
    LeaseManager,
    ResultBackend,
    SchedulerApp,
    TaskState,
)
from repro.scheduler.broker import TaskMessage


# ------------------------------------------------------- state machine


def test_retry_state_can_restart_and_dead_letter_is_terminal():
    backend = ResultBackend()
    backend.create("t1")
    backend.transition("t1", TaskState.STARTED)
    backend.transition("t1", TaskState.RETRY)
    backend.transition("t1", TaskState.STARTED)  # RETRY -> STARTED legal
    backend.transition("t1", TaskState.RETRY)
    backend.transition("t1", TaskState.DEAD_LETTER)
    assert backend.state("t1").is_terminal
    with pytest.raises(StateError):
        backend.transition("t1", TaskState.STARTED)
    with pytest.raises(StateError):
        backend.transition("t1", TaskState.SUCCESS)


def test_pending_task_can_be_dead_lettered_directly():
    # A worker can crash after consuming a message but before the STARTED
    # transition; redelivery exhaustion then parks a still-PENDING task.
    backend = ResultBackend()
    backend.create("t2")
    backend.transition("t2", TaskState.DEAD_LETTER)
    assert backend.state("t2") is TaskState.DEAD_LETTER


# ------------------------------------------------------------ LeaseManager


def _message(name="job"):
    return TaskMessage(task_name=name, args=(), kwargs={})


def test_lease_ttl_must_be_positive():
    with pytest.raises(ValidationError):
        LeaseManager(ttl=0)


def test_acquire_counts_deliveries_and_tracks_holder():
    leases = LeaseManager(ttl=5.0)
    message = _message()
    assert message.deliveries == 0
    leases.acquire(message, "worker-0")
    assert message.deliveries == 1
    assert leases.holder(message.task_id) == "worker-0"
    assert leases.active() == 1
    leases.release(message.task_id)
    assert leases.holder(message.task_id) is None
    assert leases.release(message.task_id) is None  # idempotent


def test_heartbeat_extends_the_deadline():
    leases = LeaseManager(ttl=0.1)
    message = _message()
    lease = leases.acquire(message, "w")
    old_deadline = lease.deadline
    time.sleep(0.02)
    assert leases.heartbeat(message.task_id)
    assert lease.deadline > old_deadline
    assert not leases.heartbeat("no-such-task")


def test_expired_pops_only_overdue_leases_in_acquisition_order():
    leases = LeaseManager(ttl=0.05)
    first, second, fresh = _message("a"), _message("b"), _message("c")
    leases.acquire(first, "w0")
    time.sleep(0.005)
    leases.acquire(second, "w1")
    time.sleep(0.06)  # both are overdue by now
    leases.acquire(fresh, "w2")
    reclaimed = leases.expired()
    assert [lease.task_id for lease in reclaimed] == [
        first.task_id,
        second.task_id,
    ]
    # Popped means popped: a second sweep finds nothing new.
    assert leases.expired() == []
    assert leases.active() == 1  # the fresh lease survives


# ---------------------------------------------------------- leak tracking


def test_timed_out_tasks_leak_tracked_threads():
    """Abandoned helper threads are counted on the
    ``scheduler_leaked_threads`` gauge and pruned, once they end, the
    next time a timed task starts."""
    app = SchedulerApp(name="leaky", worker_count=2)
    try:
        @app.task(name="hang", timeout=0.05)
        def hang(seconds):
            time.sleep(seconds)

        with telemetry.session() as session:
            leaked = session.metrics.gauge("scheduler_leaked_threads")
            results = [hang.apply_async(args=(0.5,)) for _ in range(2)]
            for result in results:
                with pytest.raises(StateError, match="timed out"):
                    result.get(timeout=10)
            assert leaked.value(app="leaky") == 2
            time.sleep(0.6)  # the hung sleeps finish
            hang.apply_async(args=(0,)).get(timeout=10)
            assert leaked.value(app="leaky") == 0
    finally:
        app.shutdown()


def test_leak_cap_fails_new_tasks_with_a_clear_error(monkeypatch):
    import threading

    monkeypatch.setattr("repro.scheduler.app.MAX_LEAKED_THREADS", 1)
    release = threading.Event()
    app = SchedulerApp(name="capped", worker_count=1)
    try:
        @app.task(name="hang", timeout=0.05)
        def hang():
            release.wait(30)

        first = hang.apply_async()
        with pytest.raises(StateError, match="timed out"):
            first.get(timeout=10)
        blocked = hang.apply_async()
        with pytest.raises(StateError, match="MAX_LEAKED_THREADS = 1"):
            blocked.get(timeout=10)
        assert blocked.state is TaskState.FAILURE
    finally:
        release.set()
        app.shutdown()
