"""The message broker: a bounded, leveled queue of task messages.

Celery's broker (RabbitMQ/Redis) reduces, for a single host, to a queue of
serializable messages; this is that queue.  Since the admission-control
layer it is no longer an unbounded FIFO: messages live in a
:class:`~repro.scheduler.admission.LeveledQueue` — three priority lanes
(interactive > default > bulk, FIFO within a lane) under an optional
total bound, so ``publish`` can refuse instead of letting a bulk flood
grow memory without limit.  The broker also hosts the **single-flight
registry**: tasks submitted with an identical ``dedup_key`` while one is
still in flight coalesce onto the first submission (the *leader*)
instead of enqueuing duplicate work — followers simply subscribe to the
leader's result.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.ids import new_uuid
from repro.scheduler.admission import LeveledQueue
from repro.scheduler.lease import DEFAULT_LEASE_TTL, LeaseManager
from repro.scheduler.retry import RetryPolicy


@dataclass
class TaskMessage:
    """One enqueued task invocation.

    ``trace_context`` carries the submitting span's context (trace id +
    span id, dict form) across the broker: worker threads cannot see the
    submitter's thread-local span stack, so the handle must travel in the
    message for telemetry to stitch experiment → task → run spans.

    ``retries`` counts failed attempts consumed from the retry budget;
    ``deliveries`` counts lease acquisitions (how many workers have picked
    the message up), which is what bounds redelivery after crashes.

    ``dedup_key`` opts the message into single-flight coalescing: while
    this message is in flight, later submissions carrying the same key
    are not enqueued at all — they receive this message's result handle.

    ``tenant`` and ``priority`` are the admission-control coordinates:
    which quota ledger/rate bucket the submission is charged to, and
    which queue lane it waits in (``interactive`` > ``default`` >
    ``bulk``; bulk is shed first under overload).
    """

    task_name: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    task_id: str = field(default_factory=new_uuid)
    timeout: Optional[float] = None
    max_retries: int = 0
    retries: int = 0
    deliveries: int = 0
    retry_policy: Optional[RetryPolicy] = None
    trace_context: Optional[Dict[str, str]] = None
    dedup_key: Optional[str] = None
    tenant: str = "default"
    priority: str = "default"


class SingleFlight:
    """In-flight dedup-key → leader-task registry.

    The registry only tracks *in-flight* work: once a leader reaches a
    terminal state it is released (completed results are the result
    cache's job, not the broker's).  ``acquire`` is atomic — exactly one
    of N concurrent submissions with the same key becomes the leader.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._leaders: Dict[str, str] = {}

    def acquire(
        self,
        key: str,
        task_id: str,
        is_active: Optional[Callable[[str], bool]] = None,
    ) -> Optional[str]:
        """Claim leadership of ``key`` for ``task_id``.

        Returns None when ``task_id`` became the leader (the caller must
        enqueue the message), or the current leader's task id when the
        submission coalesces.  ``is_active`` guards against a stale
        leader that finished without releasing (e.g. a racing terminal
        transition): an inactive leader is replaced.
        """
        with self._lock:
            leader = self._leaders.get(key)
            if leader is not None and (
                is_active is None or is_active(leader)
            ):
                return leader
            self._leaders[key] = task_id
            return None

    def release(self, key: Optional[str], task_id: str) -> None:
        """Drop leadership, but only if ``task_id`` still holds it."""
        if key is None:
            return
        with self._lock:
            if self._leaders.get(key) == task_id:
                del self._leaders[key]

    def leader(self, key: str) -> Optional[str]:
        with self._lock:
            return self._leaders.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._leaders)


class Broker:
    """Leveled, bounded delivery of task messages to workers, with leases.

    ``leases`` tracks which worker currently holds each dequeued message;
    the scheduler's reaper re-publishes messages whose lease expired.
    ``queue_limit`` caps total resident messages (None keeps the
    historical unbounded behaviour); when full, ``publish`` returns
    False and the admission layer decides whether to displace lower-
    priority work or reject the submission.
    """

    def __init__(
        self,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        queue_limit: Optional[int] = None,
    ):
        self._queue = LeveledQueue(limit=queue_limit)
        self._revoked = set()
        self._lock = threading.Lock()
        self.leases = LeaseManager(ttl=lease_ttl)
        self.singleflight = SingleFlight()

    @property
    def queue_limit(self) -> Optional[int]:
        return self._queue.limit

    def publish(self, message: TaskMessage, force: bool = False) -> bool:
        """Enqueue into the message's priority lane.

        Returns False when the queue is at its bound; ``force`` pushes
        past the bound (redeliveries of reclaimed messages must never be
        refused — losing an acknowledged task is worse than a transient
        one-slot overshoot).
        """
        return self._queue.put(message, force=force)

    def has_capacity(self) -> bool:
        limit = self._queue.limit
        return limit is None or len(self._queue) < limit

    def consume(
        self, timeout: Optional[float] = None
    ) -> Optional[TaskMessage]:
        """Pop the most urgent message, or None on timeout / empty
        non-blocking."""
        return self._queue.get(timeout=timeout)

    def wake(self) -> None:
        """End every blocked ``consume`` early (shutdown's doorbell)."""
        self._queue.wake()

    def evict_lower(self, level: int) -> Optional[TaskMessage]:
        """Shed the newest queued message less urgent than ``level``."""
        return self._queue.evict_lower(level)

    def queue_depth(self) -> Dict[str, int]:
        """Exact per-priority resident counts."""
        return self._queue.depth()

    def revoke(self, task_id: str) -> None:
        """Mark a task so workers drop it instead of executing it."""
        with self._lock:
            self._revoked.add(task_id)

    def is_revoked(self, task_id: str) -> bool:
        with self._lock:
            return task_id in self._revoked

    def discard_revoked(self, task_id: str) -> None:
        """Forget a revocation once the task is terminal — the mark has
        done its job, and keeping it would leak one set entry per
        revoked task over a long-running service's life."""
        with self._lock:
            self._revoked.discard(task_id)

    def revoked_count(self) -> int:
        """Live (not yet pruned) revocation marks."""
        with self._lock:
            return len(self._revoked)

    def __len__(self) -> int:
        return len(self._queue)
