"""The Celery-like application object.

A :class:`SchedulerApp` owns the broker, the result backend, a registry of
task functions, and a pool of worker threads.  Task functions are registered
with the ``@app.task(...)`` decorator and submitted with ``apply_async``,
matching how gem5art launch scripts fan out gem5 jobs.

Resilience model (see ``docs/robustness.md``):

- Every attempt runs on a helper thread that the worker thread joins with
  the task's timeout; a timed-out helper is abandoned, tracked (the
  ``scheduler_leaked_threads`` gauge) and capped.
- A failed attempt is retried at once while the task's ``max_retries``
  budget lasts; a task that exhausts a non-zero budget is parked in the
  result backend's **dead-letter** record.
- A worker thread that dies mid-task (a chaos-injected crash, a fault in
  the result backend) always runs its own handler, so it hands the
  message back itself, immediately: re-published for the next delivery,
  or dead-lettered past ``DEFAULT_MAX_REDELIVERIES`` — a waiter on its
  result cannot hang on it.  (A worker *process* runs no handler when
  it is killed; :class:`~repro.scheduler.ProcessPool` hears of that
  from the process sentinel.)
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

from repro import chaos
from repro.common.errors import NotFoundError, ValidationError
from repro.scheduler.broker import Broker, TaskMessage
from repro.scheduler.result import AsyncResult, ResultBackend
from repro.scheduler.states import TaskState
from repro.telemetry import get_event_log, get_metrics, get_tracer

#: Extra deliveries a message may receive after worker crashes before it
#: is dead-lettered (the first delivery is not a *re*-delivery).
DEFAULT_MAX_REDELIVERIES = 3

#: Ceiling on live helper threads abandoned by timed-out tasks.
MAX_LEAKED_THREADS = 64


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
        """Enqueue an invocation; returns the result handle immediately."""
        return self.app.send_task(
            self.name,
            args=args,
            kwargs=kwargs,
            timeout=self.timeout,
            max_retries=self.max_retries,
        )


class SchedulerApp:
    """Task registry + broker + result backend + worker pool."""

    def __init__(self, name: str = "repro", worker_count: int = 2):
        if worker_count < 1:
            raise ValidationError("worker_count must be >= 1")
        self.name = name
        self.broker = Broker()
        self.backend = ResultBackend()
        self.worker_count = worker_count
        self._tasks: Dict[str, RegisteredTask] = {}
        self._workers: list = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._leak_lock = threading.Lock()
        self._leaked: list = []

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
        timeout: Optional[float] = None,
        max_retries: int = 0,
    ) -> AsyncResult:
        """Enqueue one invocation of the task registered as ``name``."""
        if name not in self._tasks:
            raise NotFoundError(f"no task registered as {name!r}")
        message = TaskMessage(
            task_name=name,
            args=tuple(args),
            kwargs=dict(kwargs or {}),
            timeout=timeout,
            max_retries=max_retries,
            trace_context=get_tracer().current_context_dict(),
        )
        self.backend.create(message.task_id)
        self.broker.publish(message)
        get_metrics().counter(
            "scheduler_tasks_submitted_total",
            "Tasks accepted by the scheduler app",
        ).inc(app=self.name)
        self._ensure_started()
        return AsyncResult(message.task_id, self.backend)

    # ------------------------------------------------------------- workers

    def _ensure_started(self) -> None:
        with self._lock:
            if self._workers:
                return
            for index in range(self.worker_count):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"{self.name}-worker-{index}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)

    def _worker_loop(self) -> None:
        stop = self._stop  # shutdown() swaps in a fresh event afterwards
        while not stop.is_set():
            message = self.broker.consume(stop)
            if message is None:
                continue
            message.deliveries += 1
            try:
                self._execute(message)
            except BaseException as error:
                # This delivery died mid-task — a chaos-injected crash or
                # a fault in the scheduler's own bookkeeping.  The thread
                # is still here to say so: settle the message now and
                # keep serving.
                self._hand_back(message, error)

    def _hand_back(self, message: TaskMessage, error: BaseException) -> None:
        """Settle a message whose delivery crashed: re-publish it for
        another delivery, or dead-letter it once the redelivery budget
        is spent."""
        worker = threading.current_thread().name
        get_metrics().counter(
            "scheduler_worker_crashes_total",
            "Deliveries whose worker thread died mid-task",
        ).inc(app=self.name)
        get_event_log().emit(
            "worker.crashed",
            worker=worker,
            task_id=message.task_id,
            error=type(error).__name__,
        )
        state = self.backend.state(message.task_id)
        if state.is_terminal:
            # The outcome landed before the delivery died; there is
            # nothing to recover.
            return
        if message.deliveries > DEFAULT_MAX_REDELIVERIES:
            self.backend.dead_letter(
                message,
                error=(
                    f"crashed on each of {message.deliveries} "
                    f"deliveries (last worker {worker} presumed dead)"
                ),
            )
            return
        if state is TaskState.STARTED:
            self.backend.transition(message.task_id, TaskState.RETRY)
        get_event_log().emit(
            "task.redelivered",
            task_id=message.task_id,
            worker=worker,
            deliveries=message.deliveries,
        )
        self.broker.publish(message)

    # ------------------------------------------------------------ execution

    def _execute(self, message: TaskMessage) -> None:
        """Run a message to a terminal state through one retry loop —
        iterative, so an arbitrarily large retry budget cannot blow the
        stack, and the single place outcome handling happens (success /
        timeout / retry / failure / dead-letter) — then publish it:
        after the ``task`` span has ended, so whoever waits on the
        outcome finds the task's whole span subtree finished."""
        task = self._tasks[message.task_name]
        with get_tracer().span(
            "task",
            parent=message.trace_context,
            attributes={
                "task_name": message.task_name,
                "task_id": message.task_id,
            },
        ) as span:
            chaos.fire(
                "task.execute",
                task_id=message.task_id,
                task_name=message.task_name,
                worker=threading.current_thread().name,
                delivery=message.deliveries,
            )
            while True:
                self.backend.transition(message.task_id, TaskState.STARTED)
                state, outcome = self._run_attempt(task, message)
                if state is not TaskState.FAILURE or not message.max_retries:
                    break
                if message.retries >= message.max_retries:
                    state = TaskState.DEAD_LETTER
                    break
                self.backend.transition(message.task_id, TaskState.RETRY)
                message.retries += 1
                get_event_log().emit(
                    "task.retry",
                    task_id=message.task_id,
                    task_name=message.task_name,
                    attempt=message.retries,
                )
            span.set_attribute("state", state.value)
        if state is TaskState.DEAD_LETTER:
            self.backend.dead_letter(message, error=outcome)
        elif state is TaskState.SUCCESS:
            self.backend.transition(message.task_id, state, result=outcome)
        else:
            self.backend.transition(message.task_id, state, error=outcome)

    def _run_attempt(
        self, task: RegisteredTask, message: TaskMessage
    ) -> Tuple[TaskState, Any]:
        """Run one attempt on a helper thread; returns ``(SUCCESS,
        value)``, ``(FAILURE, traceback)`` or ``(TIMEOUT, text)``.

        The helper thread *is* the timeout: the worker joins it with the
        task's deadline and abandons it when that passes — acceptable
        because simulator jobs are pure computations — but *tracked*, so
        leaks are observable and capped instead of silently
        accumulating.
        """
        leaked = self._prune_leaked()
        if leaked >= MAX_LEAKED_THREADS:
            return TaskState.FAILURE, (
                f"refusing to start task {message.task_name!r}: {leaked} "
                "helper threads leaked by timed-out tasks are still "
                f"running (cap MAX_LEAKED_THREADS = {MAX_LEAKED_THREADS}); "
                "fix the hung tasks"
            )
        box: Dict[str, Any] = {}
        tracer = get_tracer()
        parent_context = tracer.current_context_dict()

        def target():
            try:
                with tracer.activate(parent_context):
                    chaos.fire(
                        "task.run",
                        task_id=message.task_id,
                        task_name=message.task_name,
                    )
                    box["value"] = task.func(*message.args, **message.kwargs)
            except Exception:
                box["error"] = traceback.format_exc()

        helper = threading.Thread(
            target=target,
            name=(
                f"{threading.current_thread().name}"
                f"-attempt-{message.task_id[:8]}"
            ),
            daemon=True,
        )
        helper.start()
        helper.join(timeout=message.timeout)
        if helper.is_alive():
            self._register_leak(helper)
            return (
                TaskState.TIMEOUT,
                f"timed out after {message.timeout}s",
            )
        if "value" in box:
            return TaskState.SUCCESS, box["value"]
        return TaskState.FAILURE, box.get(
            "error", "task helper thread died without an outcome"
        )

    # --------------------------------------------------------- leak tracking

    def _prune_leaked(self) -> int:
        with self._leak_lock:
            self._leaked = [t for t in self._leaked if t.is_alive()]
            count = len(self._leaked)
        get_metrics().gauge(
            "scheduler_leaked_threads",
            "Live helper threads abandoned by timed-out tasks",
        ).set(count, app=self.name)
        return count

    def _register_leak(self, thread: threading.Thread) -> None:
        with self._leak_lock:
            self._leaked.append(thread)
        self._prune_leaked()
        get_event_log().emit("task.thread_leaked", thread=thread.name)

    # ------------------------------------------------------------ shutdown

    def shutdown(self) -> None:
        """Stop the worker threads (queued tasks are abandoned)."""
        self._stop.set()
        self.broker.wake()  # idle workers see _stop now
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.join(timeout=2.0)
        self._stop = threading.Event()
