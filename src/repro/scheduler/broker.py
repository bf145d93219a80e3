"""The message broker: a FIFO of task messages.

Celery's broker (RabbitMQ/Redis) reduces, for a single host, to a queue of
serializable messages; this is that queue — a ``deque`` and one condition
variable.  A sweep's scheduler app is private to one planner call (one
submitter, one kind of task), so there is nothing to prioritise, bound or
shed here; duplicate work is removed by the planner before it submits
(see :func:`repro.art.tasks.run_jobs_scheduler`).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Tuple

from repro.common.ids import new_uuid


@dataclass
class TaskMessage:
    """One enqueued task invocation.

    ``trace_context`` carries the submitting span's context (trace id +
    span id, dict form) across the broker: worker threads cannot see the
    submitter's thread-local span stack, so the handle must travel in the
    message for telemetry to stitch experiment → run → task spans.

    ``retries`` counts failed attempts consumed from the retry budget;
    ``deliveries`` counts how many times a worker has picked the message
    up, which is what bounds redelivery after worker crashes.
    """

    task_name: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    task_id: str = field(default_factory=new_uuid)
    timeout: Optional[float] = None
    max_retries: int = 0
    retries: int = 0
    deliveries: int = 0
    trace_context: Optional[Dict[str, str]] = None


class Broker:
    """FIFO delivery of task messages to worker threads."""

    def __init__(self):
        self._queue: Deque[TaskMessage] = deque()
        self._ready = threading.Condition()

    def publish(self, message: TaskMessage) -> None:
        with self._ready:
            self._queue.append(message)
            self._ready.notify()

    def consume(self, stop: threading.Event) -> Optional[TaskMessage]:
        """Pop the oldest message, blocking while the queue is empty and
        ``stop`` is unset; None when it is empty and ``stop`` is set."""
        with self._ready:
            self._ready.wait_for(lambda: self._queue or stop.is_set())
            return self._queue.popleft() if self._queue else None

    def wake(self) -> None:
        """Have every blocked ``consume`` look at its ``stop`` again
        (set it first: the check and the wait share this lock, so a
        consumer cannot miss it)."""
        with self._ready:
            self._ready.notify_all()

    def __len__(self) -> int:
        with self._ready:
            return len(self._queue)
