"""Unit tests for the retry state machine and helper-thread leak
tracking."""

import time

import pytest

from repro import telemetry
from repro.common.errors import StateError
from repro.scheduler import ResultBackend, SchedulerApp, TaskState


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
