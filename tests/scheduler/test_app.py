"""Tests for the Celery-like SchedulerApp."""

import os
import subprocess
import sys
import threading
import traceback

import pytest

import repro
from repro.common.errors import NotFoundError, ValidationError
from repro.scheduler import SchedulerApp


@pytest.fixture
def app():
    return SchedulerApp()


def test_task_registration_and_direct_call(app):
    @app.task(name="add")
    def add(a, b):
        return a + b

    assert add(2, 3) == 5
    assert app.send_task("add", args=(1, 1)).get() == 2


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
    assert result.get() == 42
    assert result.state == "SUCCESS"


def test_apply_async_kwargs(app):
    @app.task(name="kw")
    def kw(a, b=0):
        return a - b

    assert kw.apply_async(args=(10,), kwargs={"b": 4}).get() == 6


def test_failure_captures_traceback(app):
    """``get`` re-raises the body's own exception, as Celery's eager
    ``get()`` does, with the body's frame still on its traceback."""
    error = RuntimeError("kaboom")

    @app.task(name="boom")
    def boom():
        raise error

    result = boom.apply_async()
    assert result.state == "FAILURE"
    with pytest.raises(RuntimeError, match="kaboom") as excinfo:
        result.get()
    assert excinfo.value is error
    frames = traceback.extract_tb(excinfo.value.__traceback__)
    assert "boom" in [frame.name for frame in frames]


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
    assert all(result.state == "SUCCESS" for result in results)
    assert [r.get() for r in results] == list(range(50))
    assert ran_on == {threading.current_thread()}
    assert threading.enumerate() == before


def test_a_failing_task_runs_once(app):
    """A task is never retried: a body that raises runs once and ends
    ``FAILURE``, whatever it raised."""
    calls = []

    @app.task(name="bad-no-retries")
    def bad():
        calls.append(1)
        raise KeyError("permanent")

    result = bad.apply_async()
    with pytest.raises(KeyError):
        result.get()
    assert result.state == "FAILURE"
    assert calls == [1]


def test_many_parallel_tasks(app):
    @app.task(name="square")
    def square(x):
        return x * x

    results = [square.apply_async(args=(i,)) for i in range(50)]
    assert [r.get() for r in results] == [
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
    with pytest.raises(KeyError):
        app.backend.wait("no-such-id")


def test_a_sweep_import_leaves_the_app_half_unloaded():
    """Only ``procpool`` loads with the package; the ``SchedulerApp``
    half waits for first use, and ``concurrent.futures`` is never
    imported."""
    lazy = [
        "repro.scheduler.app",
        "repro.scheduler.result",
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
