"""The result backend and the AsyncResult handle callers read; run
status and execution time live in the run document, in the database."""

from typing import Any, Tuple


class ResultBackend(dict):
    """``task_id -> (state, value)`` for every task the app has run."""

    def wait(self, task_id: str) -> Tuple[str, Any]:
        """The task's outcome, without blocking: a task runs inside
        ``apply_async``, so it is settled before its handle exists."""
        return self[task_id]


class AsyncResult:
    """Handle for one submitted task, in the Celery style."""

    def __init__(self, task_id: str, backend: ResultBackend):
        self.task_id = task_id
        self._backend = backend

    @property
    def state(self) -> str:
        return self._backend.wait(self.task_id)[0]

    def get(self) -> Any:
        """The task's return value; re-raises the exception its body
        raised, as Celery's eager ``get()`` does."""
        state, value = self._backend.wait(self.task_id)
        if state == "FAILURE":
            raise value
        return value
