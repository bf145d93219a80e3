"""The Celery-like application: ``@app.task`` and ``apply_async``, as the
paper's launch script hands each gem5 run to Celery.

A task runs on the caller's thread inside ``apply_async`` (Celery's
``task_always_eager``), once: a sweep retries with
``Experiment.resume(retry_failures=True)`` and bounds a run with its
``timeout``.
"""

from typing import Callable, Dict, Optional

from repro.common.errors import NotFoundError, ValidationError
from repro.common.ids import new_uuid
from repro.scheduler.result import AsyncResult, ResultBackend


class RegisteredTask:
    """A task function bound to its app: call it, or ``apply_async``."""

    def __init__(self, app: "SchedulerApp", func: Callable, name: str):
        self.app = app
        self.func = func
        self.name = name

    def __call__(self, *args, **kwargs):
        return self.func(*args, **kwargs)

    def apply_async(self, args=(), kwargs=None) -> AsyncResult:
        """Run an invocation; returns its (settled) result handle."""
        return self.app.send_task(self.name, args=args, kwargs=kwargs)


def _settle(task: RegisteredTask, args, kwargs):
    """``("SUCCESS", value)``, or ``("FAILURE", error)`` if it raised."""
    try:
        return "SUCCESS", task.func(*args, **(kwargs or {}))
    except Exception as error:
        return "FAILURE", error


class SchedulerApp:
    """Task registry + result backend; tasks run eagerly."""

    def __init__(self, name: str = "repro"):
        self.name = name
        self.backend = ResultBackend()
        self._tasks: Dict[str, RegisteredTask] = {}

    def task(self, name: Optional[str] = None) -> Callable:
        """Decorator registering a function as a named task."""

        def decorator(func: Callable) -> RegisteredTask:
            task_name = name or f"{func.__module__}.{func.__qualname__}"
            if task_name in self._tasks:
                raise ValidationError(f"task {task_name!r} already registered")
            registered = RegisteredTask(self, func, task_name)
            self._tasks[task_name] = registered
            return registered

        return decorator

    def send_task(self, name: str, args=(), kwargs=None) -> AsyncResult:
        """Run the task registered as ``name``, on this thread."""
        if name not in self._tasks:
            raise NotFoundError(f"no task registered as {name!r}")
        task_id = new_uuid()
        self.backend[task_id] = _settle(self._tasks[name], args, kwargs)
        return AsyncResult(task_id, self.backend)

    def shutdown(self) -> None:
        """Nothing to stop: tasks run on the caller's thread, so the app
        owns no worker."""
