"""The Celery-like application object.

A :class:`SchedulerApp` owns the broker, the result backend, a registry of
task functions, and a pool of worker threads.  Task functions are registered
with the ``@app.task(...)`` decorator and submitted with ``apply_async``,
matching how gem5art launch scripts fan out gem5 jobs.

Resilience model (see ``docs/robustness.md``):

- Every attempt runs on a helper thread while the worker thread heartbeats
  the task's **lease**; a worker that crashes mid-task stops heartbeating,
  the lease expires, and the **reaper** re-publishes the message for
  another worker (bounded by ``max_redeliveries``) — so ``drain()`` cannot
  hang on a dead worker.
- Failed attempts are retried by a single loop-based :class:`RetryPolicy`
  with deterministic, seeded exponential backoff; exhausted tasks are
  parked in the result backend's **dead-letter** record.
- Helper threads abandoned by timed-out tasks are tracked (the
  ``scheduler_leaked_threads`` gauge) and capped.

Overload model (also ``docs/robustness.md``): every submission passes
the app's :class:`~repro.scheduler.admission.AdmissionController`
(circuit breaker, per-tenant rate/quota) before it may enter the
broker's bounded leveled queue.  At the bound, an interactive or
default submission displaces the newest queued bulk message (which is
shed into the overflow log); a bulk submission is rejected with a
structured ``retry_after`` and parked for replay.  The default
controller is fully permissive and the default queue unbounded, so a
plain ``SchedulerApp()`` behaves exactly as before admission control
existed.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import chaos
from repro.common.errors import NotFoundError, StateError, ValidationError
from repro.scheduler.admission import (
    AdmissionController,
    AdmissionRejected,
    BULK_LEVEL,
    OverflowRecord,
    priority_level,
)
from repro.scheduler.broker import Broker, TaskMessage
from repro.scheduler.lease import DEFAULT_LEASE_TTL
from repro.scheduler.result import AsyncResult, ResultBackend
from repro.scheduler.retry import RetryPolicy, TaskOutcome
from repro.scheduler.states import TaskState
from repro.telemetry import get_event_log, get_metrics, get_tracer

_POLL_INTERVAL = 0.05

#: Extra deliveries a message may receive after worker crashes before it
#: is dead-lettered (the first delivery is not a *re*-delivery).
DEFAULT_MAX_REDELIVERIES = 3

#: Ceiling on live helper threads abandoned by timed-out tasks.
DEFAULT_MAX_LEAKED_THREADS = 64


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
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.app = app
        self.func = func
        self.name = name
        self.max_retries = max_retries
        self.timeout = timeout
        self.retry_policy = retry_policy

    def __call__(self, *args, **kwargs):
        return self.func(*args, **kwargs)

    def apply_async(
        self,
        args: Tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        dedup_key: Optional[str] = None,
        tenant: str = "default",
        priority: str = "default",
    ) -> AsyncResult:
        """Enqueue an invocation; returns the result handle immediately.

        ``dedup_key`` opts into single-flight coalescing: if an
        invocation with the same key is already in flight, no new task
        is enqueued and the returned handle subscribes to the in-flight
        leader's result.

        ``tenant``/``priority`` are the admission coordinates: whose
        quota the submission charges and which queue lane it waits in.
        Raises :class:`~repro.scheduler.admission.AdmissionRejected`
        (with ``retry_after``) when the admission controller refuses.
        """
        return self.app.send_task(
            self.name,
            args=args,
            kwargs=kwargs or {},
            timeout=self.timeout if timeout is None else timeout,
            max_retries=self.max_retries,
            retry_policy=self.retry_policy,
            dedup_key=dedup_key,
            tenant=tenant,
            priority=priority,
        )


class SchedulerApp:
    """Task registry + broker + result backend + worker pool."""

    def __init__(
        self,
        name: str = "repro",
        worker_count: int = 2,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_redeliveries: int = DEFAULT_MAX_REDELIVERIES,
        max_leaked_threads: int = DEFAULT_MAX_LEAKED_THREADS,
        respawn_workers: bool = True,
        queue_limit: Optional[int] = None,
        admission: Optional[AdmissionController] = None,
    ):
        if worker_count < 1:
            raise ValidationError("worker_count must be >= 1")
        if max_redeliveries < 0 or max_leaked_threads < 1:
            raise ValidationError(
                "max_redeliveries must be >= 0 and max_leaked_threads >= 1"
            )
        self.name = name
        self.broker = Broker(lease_ttl=lease_ttl, queue_limit=queue_limit)
        # The default controller is fully permissive (no rates, no
        # quotas, breaker disabled) so a plain app keeps its historical
        # accept-everything behaviour; pass an AdmissionController to
        # opt into overload protection.
        self.admission = admission or AdmissionController()
        self.backend = ResultBackend()
        self.worker_count = worker_count
        self.max_redeliveries = max_redeliveries
        self.max_leaked_threads = max_leaked_threads
        self._respawn_workers = respawn_workers
        self._heartbeat_interval = max(0.005, min(_POLL_INTERVAL, lease_ttl / 5))
        self._reap_interval = max(0.005, min(_POLL_INTERVAL, lease_ttl / 4))
        self._tasks: Dict[str, RegisteredTask] = {}
        self._workers: list = []
        self._reaper: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False
        self._lock = threading.Lock()
        # Serializes decide -> (displace | reject) -> publish, so the
        # queue bound is a hard invariant: concurrent submitters cannot
        # both pass the capacity check and overshoot the limit.
        self._admission_lock = threading.Lock()
        self._leak_lock = threading.Lock()
        self._leaked: list = []
        # Submitted-but-not-finished count; drain() sleeps on the
        # condition instead of polling the queue length.
        self._inflight = 0
        self._idle = threading.Condition()

    # ------------------------------------------------------------ registry

    def task(
        self,
        name: Optional[str] = None,
        max_retries: int = 0,
        timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> Callable:
        """Decorator registering a function as a named task.

        ``retry_policy`` overrides ``max_retries`` and adds backoff/
        retry-class control; a bare ``max_retries`` keeps the historical
        immediate-retry behaviour.
        """

        def decorator(func: Callable) -> RegisteredTask:
            task_name = name or f"{func.__module__}.{func.__qualname__}"
            if task_name in self._tasks:
                raise ValidationError(
                    f"task {task_name!r} already registered"
                )
            registered = RegisteredTask(
                self,
                func,
                task_name,
                retry_policy.max_retries if retry_policy else max_retries,
                timeout,
                retry_policy,
            )
            self._tasks[task_name] = registered
            return registered

        return decorator

    def task_names(self):
        return sorted(self._tasks)

    # ---------------------------------------------------------- submission

    def send_task(
        self,
        name: str,
        args: Tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        dedup_key: Optional[str] = None,
        tenant: str = "default",
        priority: str = "default",
    ) -> AsyncResult:
        """Admit and enqueue one invocation.

        Order of gates: single-flight coalescing first (a follower
        enqueues nothing and is free, so dedup stays cross-tenant),
        then the admission controller (breaker / rate / quota), then
        queue capacity — where an urgent submission may displace the
        newest queued bulk message instead of being refused.  Raises
        :class:`AdmissionRejected` with ``retry_after`` when refused.
        """
        if name not in self._tasks:
            raise NotFoundError(f"no task registered as {name!r}")
        if not tenant:
            raise ValidationError("tenant must be a non-empty string")
        level = priority_level(priority)
        message = TaskMessage(
            task_name=name,
            args=tuple(args),
            kwargs=dict(kwargs or {}),
            timeout=timeout,
            max_retries=(
                retry_policy.max_retries if retry_policy else max_retries
            ),
            retry_policy=retry_policy,
            trace_context=get_tracer().current_context_dict(),
            dedup_key=dedup_key,
            tenant=tenant,
            priority=priority,
        )
        if dedup_key is not None:
            leader = self.broker.singleflight.acquire(
                dedup_key, message.task_id, is_active=self._task_in_flight
            )
            if leader is not None:
                # Coalesce: the follower's handle subscribes to the
                # leader's result; nothing new enters the queue.
                self.admission.note_coalesced(message)
                get_metrics().counter(
                    "scheduler_coalesced_total",
                    "Submissions coalesced onto an in-flight "
                    "single-flight leader",
                ).inc(app=self.name)
                get_event_log().emit(
                    "task.coalesced",
                    task_name=name,
                    dedup_key=dedup_key,
                    leader_task_id=leader,
                )
                return AsyncResult(leader, self.backend)
        try:
            with self._admission_lock:
                self.admission.decide(message)
                if not self.broker.has_capacity():
                    self._make_room_or_reject(message, level)
                self.backend.create(message.task_id)
                with self._idle:
                    self._inflight += 1
                # Capacity was secured under the admission lock (only
                # workers consume concurrently, which frees space), so
                # this force-publish cannot overshoot the bound.
                self.broker.publish(message, force=True)
                self.admission.note_accepted(message)
        except AdmissionRejected:
            self.broker.singleflight.release(dedup_key, message.task_id)
            raise
        get_metrics().counter(
            "scheduler_tasks_submitted_total",
            "Tasks accepted by the scheduler app",
        ).inc(app=self.name)
        self._ensure_started()
        return AsyncResult(message.task_id, self.backend)

    def _make_room_or_reject(
        self, message: TaskMessage, level: int
    ) -> None:
        """Resolve a saturated queue: shed bulk-priority work first.

        An interactive/default submission displaces the newest queued
        message of strictly lower urgency; when there is nothing to
        displace (or the submission is itself bulk) the controller
        rejects it — parking bulk submissions in the overflow log.
        """
        victim = (
            self.broker.evict_lower(level) if level < BULK_LEVEL else None
        )
        if victim is None:
            self.admission.reject_saturated(message)  # always raises
        self._finish_shed_victim(victim)

    def _finish_shed_victim(self, victim: TaskMessage) -> None:
        """Settle a message evicted from the queue: terminal SHED state
        (so its handle never hangs), overflow parking, ledger credit."""
        try:
            self.backend.transition(
                victim.task_id,
                TaskState.SHED,
                error=(
                    "shed under overload to admit higher-priority work; "
                    "the submission is parked in the admission "
                    "controller's overflow log"
                ),
            )
        except (NotFoundError, StateError):  # pragma: no cover - racing
            # The victim raced to a terminal state while being evicted;
            # its in-flight accounting was settled by whoever won.
            return
        self.broker.singleflight.release(victim.dedup_key, victim.task_id)
        self.broker.discard_revoked(victim.task_id)
        self.admission.note_shed(victim)
        self._task_done()

    def replay_overflow(
        self, limit: Optional[int] = None
    ) -> List[AsyncResult]:
        """Resubmit parked overflow records (FIFO), oldest first.

        Each record passes admission again; records that are refused a
        second time are re-parked/raised by the normal path, and this
        method stops at the first refusal so the remaining backlog
        stays queued for a later replay.
        """
        handles: List[AsyncResult] = []
        for record in self.admission.pop_overflow(limit):
            try:
                handles.append(self._resubmit(record))
            except AdmissionRejected:
                break
        return handles

    def _resubmit(self, record: OverflowRecord) -> AsyncResult:
        return self.send_task(
            record.task_name,
            args=record.args,
            kwargs=record.kwargs,
            timeout=record.timeout,
            max_retries=record.max_retries,
            retry_policy=record.retry_policy,
            tenant=record.tenant,
            priority=record.priority,
        )

    def revoke(self, result: AsyncResult) -> None:
        """Prevent a still-queued task from running.

        Revoking an already-terminal task is a no-op — recording it
        would leak a revocation mark nothing will ever prune.
        """
        try:
            if self.backend.state(result.task_id).is_terminal:
                return
        except NotFoundError:
            pass
        self.broker.revoke(result.task_id)

    # ------------------------------------------------------------- workers

    def _ensure_started(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            for index in range(self.worker_count):
                self._workers.append(self._spawn_worker(index))
            self._reaper = threading.Thread(
                target=self._reaper_loop,
                name=f"{self.name}-reaper",
                daemon=True,
            )
            self._reaper.start()

    def _spawn_worker(self, index: int) -> threading.Thread:
        worker = threading.Thread(
            target=self._worker_loop,
            name=f"{self.name}-worker-{index}",
            daemon=True,
        )
        worker.start()
        return worker

    def _worker_loop(self) -> None:
        worker = threading.current_thread().name
        while not self._stop.is_set():
            message = self.broker.consume(timeout=_POLL_INTERVAL)
            if message is None:
                continue
            if not self.admission.may_start(message):
                self._defer_capped_message(message)
                continue
            self.broker.leases.acquire(message, worker)
            try:
                self._execute(message)
            except BaseException as error:
                # The worker is dying mid-task — a chaos-injected crash or
                # an internal scheduler error.  Leave the lease unreleased
                # and the in-flight count intact: the reaper will notice
                # the silence, then re-publish or dead-letter the message.
                self._note_worker_death(worker, message, error)
                return
            self.broker.leases.release(message.task_id)
            try:
                self._finish_message(message)
            except BaseException as error:
                self._note_worker_death(worker, message, error)
                return

    def _defer_capped_message(self, message: TaskMessage) -> None:
        """The tenant is at its max_inflight concurrency: put the
        message back (tail of its lane) and briefly yield so the worker
        doesn't spin on an un-startable head.  No lease is in play yet —
        acquisition happens only after the dispatch gate admits."""
        self.broker.publish(message, force=True)
        self._stop.wait(self._heartbeat_interval)

    def _note_worker_death(
        self, worker: str, message: TaskMessage, error: BaseException
    ) -> None:
        get_metrics().counter(
            "scheduler_worker_crashes_total",
            "Worker threads that died mid-task",
        ).inc(app=self.name)
        get_event_log().emit(
            "worker.crashed",
            worker=worker,
            task_id=message.task_id,
            error=type(error).__name__,
        )

    def _task_done(self) -> None:
        with self._idle:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    def _finish_message(self, message: TaskMessage) -> None:
        """Settle a message that reached a terminal state: feed the
        admission ledger/circuit breaker, then release the in-flight
        count.  The ``finally`` keeps drain() safe even if the breaker's
        ``breaker.trip`` chaos point injects a fault mid-accounting."""
        try:
            try:
                state = self.backend.state(message.task_id).value
            except NotFoundError:  # pragma: no cover - defensive
                state = None
            self.admission.note_terminal(message, state)
        finally:
            self._task_done()

    # ------------------------------------------------------------ execution

    def _task_in_flight(self, task_id: str) -> bool:
        """Is a task id still a live single-flight leader?"""
        try:
            return not self.backend.state(task_id).is_terminal
        except NotFoundError:
            return False

    def _execute(self, message: TaskMessage) -> None:
        if self.broker.is_revoked(message.task_id):
            self.backend.transition(
                message.task_id, TaskState.REVOKED, error="revoked"
            )
            self.broker.singleflight.release(
                message.dedup_key, message.task_id
            )
            # The revocation mark has done its job; prune it so a
            # long-running service doesn't grow one set entry per
            # revoked task forever.
            self.broker.discard_revoked(message.task_id)
            return
        with get_tracer().span(
            "task",
            parent=message.trace_context,
            attributes={
                "task_name": message.task_name,
                "task_id": message.task_id,
            },
        ) as span:
            self._execute_message(message)
            span.set_attribute(
                "state", self.backend.state(message.task_id).value
            )
        # _execute_message only returns once the task is terminal, so
        # the key is free for the next identical submission (which will
        # normally be served by the result cache instead).
        self.broker.singleflight.release(
            message.dedup_key, message.task_id
        )

    def _execute_message(self, message: TaskMessage) -> None:
        """Run a message to a terminal state through one retry loop.

        Retries are iterative, not recursive, so an arbitrarily large
        retry budget cannot blow the stack; the loop is also the single
        place outcome handling happens (success / timeout / retry /
        failure / dead-letter).
        """
        chaos.fire(
            "task.execute",
            task_id=message.task_id,
            task_name=message.task_name,
            worker=threading.current_thread().name,
            delivery=message.deliveries,
        )
        task = self._tasks[message.task_name]
        policy = message.retry_policy or RetryPolicy(
            max_retries=message.max_retries
        )
        while True:
            self.backend.transition(message.task_id, TaskState.STARTED)
            outcome = self._run_attempt(task, message)
            if outcome.kind == "success":
                self.backend.transition(
                    message.task_id,
                    TaskState.SUCCESS,
                    result=outcome.value,
                )
                return
            if outcome.kind == "timeout":
                self.backend.transition(
                    message.task_id, TaskState.TIMEOUT, error=outcome.error
                )
                return
            if policy.should_retry(message.retries, outcome.exception):
                self.backend.transition(message.task_id, TaskState.RETRY)
                message.retries += 1
                delay = policy.backoff(message.task_name, message.retries)
                get_event_log().emit(
                    "task.retry",
                    task_id=message.task_id,
                    task_name=message.task_name,
                    attempt=message.retries,
                    delay=delay,
                )
                if delay > 0:
                    self._sleep_with_heartbeat(message.task_id, delay)
                continue
            if policy.max_retries > 0 and (
                message.retries >= policy.max_retries
            ):
                self.backend.dead_letter(message, error=outcome.error)
            else:
                self.backend.transition(
                    message.task_id, TaskState.FAILURE, error=outcome.error
                )
            return

    def _run_attempt(
        self, task: RegisteredTask, message: TaskMessage
    ) -> TaskOutcome:
        """Run one attempt on a helper thread, heartbeating the lease.

        The helper thread lets the worker thread keep renewing the task's
        lease while user code runs (and enforce the timeout); on timeout
        the helper is abandoned — acceptable because simulator jobs are
        pure computations — but *tracked*, so leaks are observable and
        capped instead of silently accumulating.
        """
        leaked = self._prune_leaked()
        if leaked >= self.max_leaked_threads:
            error = (
                f"refusing to start task {message.task_name!r}: {leaked} "
                "helper threads leaked by timed-out tasks are still "
                f"running (cap {self.max_leaked_threads}); raise "
                "max_leaked_threads or fix the hung tasks"
            )
            return TaskOutcome(
                "error", error=error, exception=StateError(error)
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
            except Exception as error:
                box["exception"] = error
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
        deadline = (
            None
            if message.timeout is None
            else time.monotonic() + message.timeout
        )
        while True:
            wait = self._heartbeat_interval
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            helper.join(timeout=wait)
            if not helper.is_alive():
                break
            self.broker.leases.heartbeat(message.task_id)
            if deadline is not None and time.monotonic() >= deadline:
                self._register_leak(helper)
                return TaskOutcome(
                    "timeout",
                    error=f"timed out after {message.timeout}s",
                )
        if "error" in box:
            return TaskOutcome(
                "error",
                error=box["error"],
                exception=box.get("exception"),
            )
        if "value" not in box:
            return TaskOutcome(
                "error",
                error="task helper thread died without an outcome",
            )
        return TaskOutcome("success", value=box["value"])

    def _sleep_with_heartbeat(self, task_id: str, delay: float) -> None:
        """Backoff sleep that keeps the task's lease alive."""
        deadline = time.monotonic() + delay
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._stop.wait(min(self._heartbeat_interval, remaining))
            self.broker.leases.heartbeat(task_id)

    # --------------------------------------------------------- leak tracking

    def _leaked_gauge(self):
        return get_metrics().gauge(
            "scheduler_leaked_threads",
            "Live helper threads abandoned by timed-out tasks",
        )

    def _prune_leaked(self) -> int:
        with self._leak_lock:
            self._leaked = [t for t in self._leaked if t.is_alive()]
            count = len(self._leaked)
        self._leaked_gauge().set(count, app=self.name)
        return count

    def _register_leak(self, thread: threading.Thread) -> None:
        with self._leak_lock:
            self._leaked.append(thread)
            count = sum(1 for t in self._leaked if t.is_alive())
        self._leaked_gauge().set(count, app=self.name)
        get_event_log().emit("task.thread_leaked", thread=thread.name)

    def leaked_threads(self) -> int:
        """Live helper threads abandoned by timed-out tasks (pruned)."""
        return self._prune_leaked()

    # -------------------------------------------------------------- reaper

    def _reaper_loop(self) -> None:
        while not self._stop.wait(self._reap_interval):
            self._reap_once()

    def _reap_once(self) -> None:
        """One maintenance pass: respawn dead workers, reclaim leases."""
        if self._respawn_workers:
            self._respawn_dead_workers()
        for lease in self.broker.leases.expired():
            message = lease.message
            try:
                state = self.backend.state(message.task_id)
            except NotFoundError:  # pragma: no cover - defensive
                continue
            if state.is_terminal:
                # The worker finished but died (or raced) before
                # releasing; nothing to recover.
                continue
            get_metrics().counter(
                "scheduler_lease_expirations_total",
                "Task leases that expired and were reclaimed",
            ).inc(app=self.name)
            get_event_log().emit(
                "task.lease_expired",
                task_id=message.task_id,
                worker=lease.worker,
                deliveries=message.deliveries,
            )
            try:
                if message.deliveries > self.max_redeliveries:
                    self.backend.dead_letter(
                        message,
                        error=(
                            f"lease expired after {message.deliveries} "
                            f"deliveries (last worker {lease.worker} "
                            "presumed dead)"
                        ),
                    )
                    # The crashed workers never decremented the in-flight
                    # count; parking the task finishes it (and feeds the
                    # circuit breaker — crash redeliveries that exhaust
                    # the budget count as dead-letters).
                    self.broker.singleflight.release(
                        message.dedup_key, message.task_id
                    )
                    try:
                        self._finish_message(message)
                    except Exception as error:
                        # A fault injected at the breaker.trip chaos
                        # point must not kill the reaper thread — the
                        # in-flight count was already settled by the
                        # _finish_message finally block.
                        get_event_log().emit(
                            "reaper.finish_error",
                            task_id=message.task_id,
                            error=type(error).__name__,
                        )
                else:
                    if state is not TaskState.PENDING:
                        self.backend.transition(
                            message.task_id, TaskState.RETRY
                        )
                    # Redelivery bypasses the queue bound: refusing a
                    # reclaimed message would lose acknowledged work.
                    self.broker.publish(message, force=True)
                    self.admission.note_requeued(message)
            except StateError:
                # Raced with a worker completing the task after all.
                continue

    def _respawn_dead_workers(self) -> None:
        alive = 0
        with self._lock:
            if not self._started or self._stop.is_set():
                return
            for index, worker in enumerate(self._workers):
                if worker.is_alive():
                    alive += 1
                    continue
                self._workers[index] = self._spawn_worker(index)
                alive += 1
                get_metrics().counter(
                    "scheduler_worker_respawns_total",
                    "Dead worker threads replaced by the reaper",
                ).inc(app=self.name)
                get_event_log().emit(
                    "worker.respawned", worker=worker.name
                )
        get_metrics().gauge(
            "scheduler_workers_alive",
            "Worker threads currently alive",
        ).set(alive, app=self.name)

    # ------------------------------------------------------------ shutdown

    def drain(self, timeout: float = 60.0) -> None:
        """Block until every submitted task has finished executing.

        Waits on the in-flight condition rather than sleep-polling the
        queue length, so it returns the moment the last worker finishes
        (and, unlike a queue-length poll, also covers tasks a worker has
        already dequeued but not completed).  Tasks stranded by worker
        crashes are recovered by the reaper — redelivered or
        dead-lettered — so a dead worker cannot wedge the drain.
        """
        with self._idle:
            if not self._idle.wait_for(
                lambda: self._inflight <= 0, timeout=timeout
            ):
                raise StateError(
                    "drain timed out with tasks still in flight"
                )

    def shutdown(self) -> None:
        """Stop the worker threads (queued tasks are abandoned)."""
        self._stop.set()
        self.broker.wake()  # idle workers re-check _stop now, not next poll
        # Snapshot under the lock: _respawn_dead_workers mutates the
        # list concurrently until the threads see the stop flag.
        with self._lock:
            workers = list(self._workers)
            reaper = self._reaper
        for worker in workers:
            worker.join(timeout=2.0)
        if reaper is not None:
            reaper.join(timeout=2.0)
        with self._lock:
            self._workers.clear()
            self._reaper = None
            self._started = False
        self._stop = threading.Event()
