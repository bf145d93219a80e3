"""Tests for the Celery-like SchedulerApp."""

import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import telemetry
from repro.common.errors import NotFoundError, StateError, ValidationError
from repro.scheduler import SchedulerApp, TaskState


@pytest.fixture
def app():
    return SchedulerApp()


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
    @app.task(name="slow", timeout=0.1)
    def slow():
        time.sleep(0.15)

    result = slow.apply_async()
    with pytest.raises(StateError):
        result.get(timeout=5)
    assert result.state is TaskState.TIMEOUT


def test_body_returning_past_its_timeout_is_dropped_not_retried(app):
    calls = []

    @app.task(name="late", timeout=0.05, max_retries=2)
    def late():
        calls.append(1)
        time.sleep(0.1)
        return "too late"

    result = late.apply_async()
    with pytest.raises(StateError, match="TIMEOUT"):
        result.get(timeout=5)
    record = app.backend.record(result.task_id)
    assert record["state"] is TaskState.TIMEOUT
    assert record["result"] is None
    assert record["retries"] == 0
    assert len(calls) == 1


def test_tasks_run_on_the_callers_thread_and_add_none(app):
    """Eager, as Celery under ``task_always_eager``: each task has run
    to a terminal state, on the submitting thread, before
    ``apply_async`` returns, and no thread is started for it."""
    before = threading.enumerate()
    ran_on = set()

    @app.task(name="where")
    def where(x):
        ran_on.add(threading.current_thread())
        assert threading.enumerate() == before
        return x

    results = [where.apply_async(args=(i,)) for i in range(50)]
    assert all(result.ready() for result in results)
    assert [r.get() for r in results] == list(range(50))
    assert ran_on == {threading.current_thread()}
    assert threading.enumerate() == before


def test_retry_until_success(app):
    attempts = {"n": 0}

    @app.task(name="flaky", max_retries=3)
    def flaky():
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


def test_get_without_timeout_blocks_until_done(app):
    @app.task(name="quick")
    def quick():
        return 1

    assert quick.apply_async().get() == 1


def test_unknown_task_id_in_backend(app):
    with pytest.raises(NotFoundError):
        app.backend.state("no-such-id")


def test_a_sweep_import_leaves_the_app_half_unloaded():
    """Only ``procpool`` loads with the package; the ``SchedulerApp``
    half waits for first use, and ``concurrent.futures`` is never
    imported."""
    lazy = [
        "repro.scheduler.app",
        "repro.scheduler.result",
        "repro.scheduler.states",
    ]
    probe = (
        "import sys, repro.art.tasks, repro.scheduler; "
        f"print([name for name in {lazy!r} if name in sys.modules]); "
        "repro.scheduler.SchedulerApp; "
        f"print([name for name in {lazy!r} if name in sys.modules]); "
        "print('concurrent.futures' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    ).stdout.splitlines()
    assert out == ["[]", repr(lazy), "False"]
