"""The Celery-like application object.

A :class:`SchedulerApp` owns the result backend and a registry of task
functions.  Task functions are registered with the ``@app.task(...)``
decorator and submitted with ``apply_async``, matching how gem5art
launch scripts fan out gem5 jobs.  A task runs on the caller's thread
inside ``apply_async``, as Celery runs one under ``task_always_eager``:
the package starts no thread, and a sweep that wants parallel
simulations uses the planner's process pool
(:func:`repro.art.tasks.run_jobs_scheduler`).

Resilience model (see ``docs/robustness.md``):

- A failed attempt is retried at once while the task's ``max_retries``
  budget lasts; a task that exhausts a non-zero budget is parked in the
  result backend's **dead-letter** record.
- A task's ``timeout`` is judged when its body returns, as the inline
  substrate judges ``run.timeout``: a body that returns past it ends
  ``TIMEOUT`` with its value dropped.
- A delivery that dies (a chaos ``crash``) ends its task ``FAILURE``
  with the traceback, and the next submission runs as usual.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

from repro import chaos
from repro.common.errors import NotFoundError, ValidationError
from repro.common.ids import new_uuid
from repro.scheduler.result import AsyncResult, ResultBackend
from repro.scheduler.states import TaskState
from repro.telemetry import get_event_log, get_metrics, get_tracer


class RegisteredTask:
    """A task function bound to its app; supports direct calls and
    ``apply_async`` submission."""

    def __init__(
        self,
        app: "SchedulerApp",
        func: Callable,
        name: str,
        max_retries: int,
        timeout: Optional[float],
    ):
        self.app = app
        self.func = func
        self.name = name
        self.max_retries = max_retries
        self.timeout = timeout

    def __call__(self, *args, **kwargs):
        return self.func(*args, **kwargs)

    def apply_async(
        self, args: Tuple = (), kwargs: Optional[Dict[str, Any]] = None
    ) -> AsyncResult:
        """Run an invocation; returns its (terminal) result handle."""
        return self.app.send_task(self.name, args=args, kwargs=kwargs)


def _attempt(task: RegisteredTask, task_id: str, args: Tuple, kwargs: Dict):
    """Run a task body once; returns ``(SUCCESS, value)``, ``(FAILURE,
    traceback)`` or ``(TIMEOUT, text)`` for a body that returned past
    the task's timeout."""
    started = time.monotonic()
    try:
        chaos.fire("task.run", task_id=task_id, task_name=task.name)
        value = task.func(*args, **kwargs)
    except Exception:
        return TaskState.FAILURE, traceback.format_exc()
    if task.timeout is not None and time.monotonic() - started > task.timeout:
        return TaskState.TIMEOUT, f"timed out after {task.timeout}s"
    return TaskState.SUCCESS, value


class SchedulerApp:
    """Task registry + result backend; tasks run eagerly."""

    def __init__(self, name: str = "repro"):
        self.name = name
        self.backend = ResultBackend()
        self._tasks: Dict[str, RegisteredTask] = {}

    # ------------------------------------------------------------ registry

    def task(
        self,
        name: Optional[str] = None,
        # paper surface: Celery's @app.task(max_retries=...)
        max_retries: int = 0,  # repro: noqa[DEAD-PARAM]
        # paper surface: Celery's task time limit, @app.task(timeout=...)
        timeout: Optional[float] = None,  # repro: noqa[DEAD-PARAM]
    ) -> Callable:
        """Decorator registering a function as a named task."""

        def decorator(func: Callable) -> RegisteredTask:
            task_name = name or f"{func.__module__}.{func.__qualname__}"
            if task_name in self._tasks:
                raise ValidationError(
                    f"task {task_name!r} already registered"
                )
            registered = RegisteredTask(
                self, func, task_name, max_retries, timeout
            )
            self._tasks[task_name] = registered
            return registered

        return decorator

    # ---------------------------------------------------------- submission

    def send_task(
        self,
        name: str,
        args: Tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> AsyncResult:
        """Run one invocation of the task registered as ``name`` to a
        terminal state, on this thread, and return its handle."""
        if name not in self._tasks:
            raise NotFoundError(f"no task registered as {name!r}")
        task_id = new_uuid()
        self.backend.create(task_id, name)
        get_metrics().counter(
            "scheduler_tasks_submitted_total",
            "Tasks accepted by the scheduler app",
        ).inc(app=self.name)
        self._execute(
            self._tasks[name], task_id, tuple(args), dict(kwargs or {})
        )
        return AsyncResult(task_id, self.backend)

    # ------------------------------------------------------------ execution

    def _execute(
        self,
        task: RegisteredTask,
        task_id: str,
        args: Tuple,
        kwargs: Dict[str, Any],
    ) -> None:
        """Run one task to a terminal state through one retry loop —
        iterative, so an arbitrarily large retry budget cannot blow the
        stack, and the single place outcome handling happens (success /
        timeout / retry / failure / dead-letter) — then publish it,
        after the ``task`` span (a child of the caller's open span) has
        ended."""
        with get_tracer().span(
            "task",
            attributes={"task_name": task.name, "task_id": task_id},
        ) as span:
            try:
                for attempt in range(task.max_retries + 1):
                    if attempt:
                        self.backend.transition(task_id, TaskState.RETRY)
                        get_event_log().emit(
                            "task.retry",
                            task_id=task_id,
                            task_name=task.name,
                            attempt=attempt,
                        )
                    self.backend.transition(task_id, TaskState.STARTED)
                    state, outcome = _attempt(task, task_id, args, kwargs)
                    if state is not TaskState.FAILURE:
                        break
                if state is TaskState.FAILURE and task.max_retries:
                    state = TaskState.DEAD_LETTER
            except chaos.WorkerCrashed:
                # The delivery died: its task ends here, unretried.
                state, outcome = TaskState.FAILURE, traceback.format_exc()
            span.set_attribute("state", state.value)
        if state is TaskState.SUCCESS:
            self.backend.transition(task_id, state, result=outcome)
        else:
            self.backend.transition(task_id, state, error=outcome)

    # ------------------------------------------------------------ shutdown

    def shutdown(self) -> None:
        """Nothing to stop: tasks run on the caller's thread, so the app
        owns no worker."""
