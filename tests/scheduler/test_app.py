"""Tests for the Celery-like SchedulerApp."""

import statistics
import threading
import time

import pytest

from repro import telemetry
from repro.common.errors import (
    NotFoundError,
    StateError,
    ValidationError,
)
from repro.scheduler import SchedulerApp, TaskState


@pytest.fixture
def app():
    application = SchedulerApp(worker_count=3)
    yield application
    application.shutdown()


def test_task_registration_and_direct_call(app):
    @app.task(name="add")
    def add(a, b):
        return a + b

    assert add(2, 3) == 5
    assert app.send_task("add", args=(1, 1)).get(timeout=5) == 2


def test_duplicate_registration_rejected(app):
    @app.task(name="dup")
    def one():
        return 1

    with pytest.raises(ValidationError):

        @app.task(name="dup")
        def two():
            return 2


def test_apply_async_success(app):
    @app.task(name="mul")
    def mul(a, b):
        return a * b

    result = mul.apply_async(args=(6, 7))
    assert result.get(timeout=5) == 42
    assert result.state is TaskState.SUCCESS
    assert result.successful()


def test_apply_async_kwargs(app):
    @app.task(name="kw")
    def kw(a, b=0):
        return a - b

    assert kw.apply_async(args=(10,), kwargs={"b": 4}).get(timeout=5) == 6


def test_failure_captures_traceback(app):
    @app.task(name="boom")
    def boom():
        raise RuntimeError("kaboom")

    result = boom.apply_async()
    with pytest.raises(StateError) as excinfo:
        result.get(timeout=5)
    assert "kaboom" in str(excinfo.value)
    assert result.state is TaskState.FAILURE


def test_timeout(app):
    @app.task(name="slow")
    def slow():
        time.sleep(5)

    result = slow.apply_async(timeout=0.1)
    with pytest.raises(StateError):
        result.get(timeout=5)
    assert result.state is TaskState.TIMEOUT


def test_retry_until_success(app):
    attempts = {"n": 0}
    lock = threading.Lock()

    @app.task(name="flaky", max_retries=3)
    def flaky():
        with lock:
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
        return "finally"

    result = flaky.apply_async()
    assert result.get(timeout=5) == "finally"
    assert attempts["n"] == 3
    assert app.backend.record(result.task_id)["retries"] == 2


def test_retries_exhausted_dead_letters(app):
    @app.task(name="always-bad", max_retries=2)
    def always_bad():
        raise RuntimeError("permanent")

    with telemetry.session() as session:
        result = always_bad.apply_async()
        with pytest.raises(StateError):
            result.get(timeout=5)
        parked = session.metrics.counter("scheduler_dead_letters_total")
        assert parked.value(task_name="always-bad") == 1
    assert result.state is TaskState.DEAD_LETTER
    record = app.backend.record(result.task_id)
    assert record["retries"] == 2
    assert "permanent" in record["error"]


def test_failure_without_retry_budget_is_not_dead_lettered(app):
    @app.task(name="bad-no-retries")
    def bad():
        raise RuntimeError("permanent")

    result = bad.apply_async()
    with pytest.raises(StateError):
        result.get(timeout=5)
    assert result.state is TaskState.FAILURE


def test_many_parallel_tasks(app):
    @app.task(name="square")
    def square(x):
        return x * x

    results = [square.apply_async(args=(i,)) for i in range(50)]
    assert [r.get(timeout=10) for r in results] == [
        i * i for i in range(50)
    ]


def test_send_task_unknown_name(app):
    with pytest.raises(NotFoundError):
        app.send_task("missing")


def test_worker_count_validated():
    with pytest.raises(ValidationError):
        SchedulerApp(worker_count=0)


def test_get_without_timeout_blocks_until_done(app):
    @app.task(name="quick")
    def quick():
        return 1

    assert quick.apply_async().get() == 1


def test_unknown_task_id_in_backend(app):
    with pytest.raises(NotFoundError):
        app.backend.state("no-such-id")


def test_shutdown_of_idle_app_does_not_wait_out_the_poll():
    """shutdown() wakes workers blocked in consume(); nothing polls."""
    elapsed = []
    for _ in range(5):
        application = SchedulerApp(worker_count=4)

        @application.task(name="noop")
        def noop():
            return None

        assert noop.apply_async().get(timeout=5) is None
        time.sleep(0.01)  # let every worker block in consume() again
        started = time.monotonic()
        application.shutdown()
        elapsed.append(time.monotonic() - started)
    assert statistics.median(elapsed) < 0.025, elapsed
