"""Result backend and the AsyncResult handle callers read.

The backend records per-task state transitions (enforcing the state machine
from :mod:`repro.scheduler.states`) and the return value or error text;
run status and execution time live in the run document, in the database.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.errors import NotFoundError, StateError
from repro.scheduler.states import TaskState, can_transition
from repro.telemetry import get_event_log, get_metrics


class ResultBackend:
    """Store of task outcomes."""

    def __init__(self):
        self._records: Dict[str, Dict[str, Any]] = {}

    def create(self, task_id: str, task_name: str) -> None:
        self._records[task_id] = {
            "task_name": task_name,
            "state": TaskState.PENDING,
            "result": None,
            "error": None,
            "retries": 0,
        }

    def transition(
        self,
        task_id: str,
        state: TaskState,
        result: Any = None,
        error: Optional[str] = None,
    ) -> None:
        record = self._get(task_id)
        current = record["state"]
        if not can_transition(current, state):
            raise StateError(
                f"illegal transition {current.value} -> {state.value} "
                f"for task {task_id}"
            )
        record["state"] = state
        if state is TaskState.RETRY:
            record["retries"] += 1
            get_metrics().counter(
                "scheduler_task_retries_total",
                "Task executions that ended in a retry",
            ).inc()
        if state.is_terminal:
            record["result"] = result
            record["error"] = error
            get_metrics().counter(
                "scheduler_tasks_total",
                "Tasks by terminal state",
            ).inc(state=state.value)
        get_event_log().emit(
            "task.transition",
            task_id=task_id,
            src=current.value,
            dst=state.value,
        )
        if state is TaskState.DEAD_LETTER:
            # Says what was lost without trawling every task record.
            get_metrics().counter(
                "scheduler_dead_letters_total",
                "Tasks parked after exhausting their retries",
            ).inc(task_name=record["task_name"])
            get_event_log().emit(
                "task.dead_letter",
                task_id=task_id,
                task_name=record["task_name"],
                retries=record["retries"],
            )

    def state(self, task_id: str) -> TaskState:
        return self._get(task_id)["state"]

    def record(self, task_id: str) -> Dict[str, Any]:
        return dict(self._get(task_id))

    def wait(self, task_id: str) -> TaskState:
        """The task's state, without blocking: a task runs inside
        ``apply_async``, so it is terminal before its handle exists."""
        return self.state(task_id)

    def _get(self, task_id: str) -> Dict[str, Any]:
        if task_id not in self._records:
            raise NotFoundError(f"unknown task id: {task_id}")
        return self._records[task_id]


class AsyncResult:
    """Handle for one submitted task, in the Celery style."""

    def __init__(self, task_id: str, backend: ResultBackend):
        self.task_id = task_id
        self._backend = backend

    @property
    def state(self) -> TaskState:
        return self._backend.state(self.task_id)

    def ready(self) -> bool:
        return self.state.is_terminal

    # paper surface: Celery's AsyncResult.successful()
    def successful(self) -> bool:  # repro: noqa[DEAD-REACH]
        return self.state is TaskState.SUCCESS

    def get(self, timeout: Optional[float] = None) -> Any:
        """Return the task's result.

        The task already ran, inside ``apply_async``; ``timeout`` is
        Celery's signature and has nothing to wait for.  Raises
        :class:`StateError` carrying the task error when the task
        failed, timed out or was dead-lettered.
        """
        state = self._backend.wait(self.task_id)
        record = self._backend.record(self.task_id)
        if state is TaskState.SUCCESS:
            return record["result"]
        raise StateError(
            f"task {self.task_id} ended in state {state.value}: "
            f"{record['error']}"
        )
