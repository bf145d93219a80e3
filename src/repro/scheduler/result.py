"""Result backend and the AsyncResult handle callers poll.

The backend records per-task state transitions (enforcing the state machine
from :mod:`repro.scheduler.states`) and the return value or error text;
run status and execution time live in the run document, in the database.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Optional, Tuple

from repro import chaos
from repro.common.errors import NotFoundError, StateError
from repro.scheduler.states import TaskState, can_transition
from repro.telemetry import get_event_log, get_metrics


class ResultBackend:
    """Thread-safe store of task outcomes."""

    def __init__(self):
        self._records: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Condition()

    def create(self, task_id: str) -> None:
        with self._lock:
            self._records[task_id] = {
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
        chaos.fire("backend.transition", task_id=task_id, dst=state.value)
        with self._lock:
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
            self._lock.notify_all()

    def dead_letter(self, message, error: Optional[str] = None) -> None:
        """Park a task whose retry/redelivery budget is exhausted.

        Besides the terminal ``DEAD_LETTER`` transition (the task record
        keeps the error), a ``task.dead_letter`` event and the
        ``scheduler_dead_letters_total`` counter say what was lost
        without trawling every task record; ``message`` is a
        :class:`~repro.scheduler.broker.TaskMessage`.
        """
        self.transition(
            message.task_id, TaskState.DEAD_LETTER, error=error
        )
        get_metrics().counter(
            "scheduler_dead_letters_total",
            "Tasks parked after exhausting retries/redeliveries",
        ).inc(task_name=message.task_name)
        get_event_log().emit(
            "task.dead_letter",
            task_id=message.task_id,
            task_name=message.task_name,
            retries=message.retries,
            deliveries=message.deliveries,
        )

    def state(self, task_id: str) -> TaskState:
        with self._lock:
            return self._get(task_id)["state"]

    def record(self, task_id: str) -> Dict[str, Any]:
        with self._lock:
            return dict(self._get(task_id))

    def wait(
        self, task_id: str, timeout: Optional[float] = None
    ) -> TaskState:
        """Block until the task reaches a terminal state (or timeout)."""
        with self._lock:
            self._lock.wait_for(lambda: self._terminal(task_id), timeout)
            return self._get(task_id)["state"]

    def wait_any(
        self, task_ids: Iterable[str]
    ) -> Tuple[str, Any, Optional[str], bool]:
        """Block until one of ``task_ids`` is terminal: ``(task_id,
        result, error, timed_out)`` — the next completed of a caller
        that finishes tasks in completion order.  The result is handed
        over, not kept: a sweep's are whole stats files."""
        with self._lock:
            task_id = self._lock.wait_for(
                lambda: next(filter(self._terminal, task_ids), None)
            )
            record = self._get(task_id)
            result, record["result"] = record["result"], None
            timed_out = record["state"] is TaskState.TIMEOUT
            return task_id, result, record["error"], timed_out

    def _terminal(self, task_id: str) -> bool:
        return self._get(task_id)["state"].is_terminal

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
        """Wait for completion and return the result.

        Raises :class:`StateError` carrying the task error when the task
        failed, timed out, was dead-lettered, or did not finish before
        ``timeout``.
        """
        state = self._backend.wait(self.task_id, timeout=timeout)
        record = self._backend.record(self.task_id)
        if state is TaskState.SUCCESS:
            return record["result"]
        if not state.is_terminal:
            raise StateError(
                f"task {self.task_id} not finished within timeout "
                f"(state={state.value})"
            )
        raise StateError(
            f"task {self.task_id} ended in state {state.value}: "
            f"{record['error']}"
        )
