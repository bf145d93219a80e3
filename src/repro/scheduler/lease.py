"""Task leases: at-least-once delivery for holders that can die silently.

A worker that is handed a message holds a *lease* on it — a claim with a
deadline.  Live workers renew the deadline by heartbeating while the task
runs; if the worker dies (or wedges hard enough to stop heartbeating), the
lease expires and the owner's reaper reclaims the message, either
re-dispatching it to another worker or dead-lettering it once its
redelivery budget is spent.  This is the standard visibility-timeout
contract of SQS/Pub-Sub brokers, reduced to one host.  Its one user is
:class:`~repro.scheduler.ProcessPool`: a SIGKILLed worker *process* runs
no handler, so silence is the only signal.  (A worker *thread* always
runs its ``except`` clause and hands its message back itself — see
:mod:`repro.scheduler.app`.)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.broker import TaskMessage


@dataclass
class Lease:
    """One worker's claim on one in-flight task message."""

    message: "TaskMessage"
    worker: str
    deadline: float
    acquired_at: float

    @property
    def task_id(self) -> str:
        return self.message.task_id


class LeaseManager:
    """Thread-safe registry of in-flight task leases."""

    def __init__(self, ttl: float):
        if ttl <= 0:
            raise ValidationError("lease ttl must be positive")
        self.ttl = ttl
        self._lock = threading.Lock()
        self._leases: Dict[str, Lease] = {}

    def acquire(self, message: "TaskMessage", worker: str) -> Lease:
        """Claim a message for ``worker``; counts one delivery."""
        now = time.monotonic()
        lease = Lease(
            message=message,
            worker=worker,
            deadline=now + self.ttl,
            acquired_at=now,
        )
        with self._lock:
            message.deliveries += 1
            self._leases[message.task_id] = lease
        return lease

    def heartbeat(self, task_id: str) -> bool:
        """Renew a lease; returns False when it no longer exists (the
        reaper already reclaimed it, or the task finished)."""
        with self._lock:
            lease = self._leases.get(task_id)
            if lease is None:
                return False
            lease.deadline = time.monotonic() + self.ttl
            return True

    def release(self, task_id: str) -> Optional[Lease]:
        """Drop a lease (task finished); idempotent."""
        with self._lock:
            return self._leases.pop(task_id, None)

    def expired(self) -> List[Lease]:
        """Pop and return every lease past its deadline."""
        now = time.monotonic()
        with self._lock:
            dead = [
                lease
                for lease in self._leases.values()
                if lease.deadline <= now
            ]
            for lease in dead:
                del self._leases[lease.task_id]
        return sorted(dead, key=lambda lease: lease.acquired_at)

    def next_deadline(self) -> Optional[float]:
        """Earliest deadline among live leases (``time.monotonic``
        clock), or None when nothing is leased — how long an
        event-driven reaper may sleep before :meth:`expired` can have
        anything to return."""
        with self._lock:
            return min(
                (lease.deadline for lease in self._leases.values()),
                default=None,
            )

    def holder(self, task_id: str) -> Optional[str]:
        with self._lock:
            lease = self._leases.get(task_id)
            return None if lease is None else lease.worker

    def active(self) -> int:
        with self._lock:
            return len(self._leases)
