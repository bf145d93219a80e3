"""Admission control and overload protection for the scheduler.

The broker used to be an unbounded FIFO: every ``apply_async`` was
accepted unconditionally, so one bulk sweep could starve interactive
runs, exhaust memory, and melt the worker pool with no pushback.  This
module is the protection layer in front of it:

- :class:`LeveledQueue` — a *bounded* three-level priority queue
  (interactive > default > bulk, FIFO within a level) with a single
  locked size counter, so queue depth is exact, capped, and reportable;
- :class:`TokenBucket` / :class:`TenantLimits` — deterministic
  per-tenant rate limiting and quota ledgers (max queued + max
  in-flight), driven by an *injectable clock* so tests and chaos
  replays stay seeded-deterministic;
- :class:`CircuitBreaker` — a per-task-name breaker that opens after N
  consecutive dead-letters, fails submissions fast while open, and
  probes with a single half-open task after a seeded backoff;
- :class:`AdmissionController` — the policy front end the app consults
  on every submission.  On saturation it sheds bulk work first: a shed
  or door-rejected bulk submission is parked in a dead-letter-style
  **overflow record** (for later replay) and the caller gets a
  structured :class:`AdmissionRejected` carrying ``retry_after`` —
  never a silent drop, never an indefinite block.

Every decision is appended to an in-order decision log; with the clock
injected, two identically-seeded runs produce identical
accept/reject/shed sequences, which is what the chaos suite replays.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro import chaos
from repro.common.errors import ReproError, ValidationError
from repro.scheduler.retry import RetryPolicy
from repro.telemetry import get_event_log, get_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scheduler.broker import TaskMessage

#: Priority names in descending urgency; queue level = tuple index.
PRIORITIES = ("interactive", "default", "bulk")

#: Priority name -> queue level (0 is served first).
PRIORITY_LEVEL = {name: level for level, name in enumerate(PRIORITIES)}

#: The level shed first under saturation (and never allowed to displace
#: other work).
BULK_LEVEL = PRIORITY_LEVEL["bulk"]

#: Default cap on parked overflow records; beyond it, rejections still
#: carry ``retry_after`` but are no longer parked for replay.
DEFAULT_OVERFLOW_LIMIT = 1024

#: Circuit-breaker states (also the ``breaker_state`` gauge values).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"
BREAKER_STATE_VALUE = {
    BREAKER_CLOSED: 0,
    BREAKER_HALF_OPEN: 1,
    BREAKER_OPEN: 2,
}


def priority_level(priority: str) -> int:
    """Validate a priority name and return its queue level."""
    if priority not in PRIORITY_LEVEL:
        raise ValidationError(
            f"unknown priority {priority!r}; one of {PRIORITIES}"
        )
    return PRIORITY_LEVEL[priority]


class AdmissionRejected(ReproError):
    """A submission the admission controller refused to enqueue.

    Structured so callers can back off instead of guessing: ``reason``
    is one of ``breaker_open`` / ``rate_limited`` / ``tenant_quota`` /
    ``queue_full``, ``retry_after`` is the seconds the caller should
    wait before resubmitting, and ``parked`` reports whether the
    submission was recorded in the overflow log for later replay.
    """

    def __init__(
        self,
        reason: str,
        task_name: str,
        tenant: str,
        priority: str,
        retry_after: float,
        parked: bool = False,
    ):
        self.reason = reason
        self.task_name = task_name
        self.tenant = tenant
        self.priority = priority
        self.retry_after = retry_after
        self.parked = parked
        parked_note = "; parked in overflow" if parked else ""
        super().__init__(
            f"submission of {task_name!r} rejected ({reason}) for "
            f"tenant {tenant!r} priority {priority!r}; retry after "
            f"{retry_after:.3f}s{parked_note}"
        )


# --------------------------------------------------------------- queue


class LeveledQueue:
    """Bounded multi-level priority queue of task messages.

    Three FIFO lanes (interactive / default / bulk); ``get`` always
    serves the most urgent non-empty lane.  ``limit`` caps the *total*
    resident depth — ``put`` refuses instead of blocking, so the
    admission layer above decides whether to shed, reject, or displace.
    Size is a single counter under the lock, not a ``qsize`` guess.
    """

    def __init__(self, limit: Optional[int] = None):
        if limit is not None and limit < 1:
            raise ValidationError("queue limit must be >= 1 (or None)")
        self.limit = limit
        self._cond = threading.Condition()
        self._levels: Tuple[deque, ...] = tuple(
            deque() for _ in PRIORITIES
        )
        self._size = 0
        self._wakes = 0

    def put(self, message: "TaskMessage", force: bool = False) -> bool:
        """Append to the message's priority lane.

        Returns False when the queue is at its bound (and ``force`` is
        not set); redeliveries publish with ``force=True`` because a
        reclaimed message must never be lost to backpressure.
        """
        level = priority_level(message.priority)
        with self._cond:
            if (
                not force
                and self.limit is not None
                and self._size >= self.limit
            ):
                return False
            self._levels[level].append(message)
            self._size += 1
            self._cond.notify()
        self._report_depth()
        return True

    def get(
        self, timeout: Optional[float] = None
    ) -> Optional["TaskMessage"]:
        """Pop the most urgent message; None on empty/timeout.

        ``timeout=None`` is non-blocking, matching the broker's
        historical ``get_nowait`` contract.  A :meth:`wake` during the
        wait ends it early, as a timeout would.
        """
        with self._cond:
            if timeout is None:
                message = self._pop_locked()
            else:
                deadline = time.monotonic() + timeout
                wakes = self._wakes
                while True:
                    message = self._pop_locked()
                    if message is not None:
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or wakes != self._wakes:
                        return None
                    self._cond.wait(timeout=remaining)
        if message is not None:
            self._report_depth()
        return message

    def wake(self) -> None:
        """Make every blocked :meth:`get` return now (None unless a
        message is there) so its caller can re-check a stop flag;
        nothing is dequeued and later ``get`` calls block as usual."""
        with self._cond:
            self._wakes += 1
            self._cond.notify_all()

    def _pop_locked(self) -> Optional["TaskMessage"]:
        for lane in self._levels:
            if lane:
                self._size -= 1
                return lane.popleft()
        return None

    def evict_lower(self, level: int) -> Optional["TaskMessage"]:
        """Remove and return the *newest* message of the lowest-priority
        non-empty lane strictly below ``level``'s urgency.

        This is the displacement primitive: when the queue is full and
        an interactive submission arrives, the freshest bulk message is
        shed to make room (newest first, so the oldest — closest to
        running — keeps its place in line).
        """
        with self._cond:
            for lane_level in range(len(self._levels) - 1, level, -1):
                lane = self._levels[lane_level]
                if lane:
                    self._size -= 1
                    message = lane.pop()
                    break
            else:
                return None
        self._report_depth()
        return message

    def depth(self) -> Dict[str, int]:
        """Exact per-level resident counts (one lock, one snapshot)."""
        with self._cond:
            return {
                name: len(self._levels[level])
                for name, level in PRIORITY_LEVEL.items()
            }

    def _report_depth(self) -> None:
        gauge = get_metrics().gauge(
            "queue_depth",
            "Messages resident in the broker queue, per priority level",
        )
        for name, count in self.depth().items():
            gauge.set(count, level=name)

    def __len__(self) -> int:
        with self._cond:
            return self._size


# --------------------------------------------------------- rate limits


@dataclass(frozen=True)
class TenantLimits:
    """Per-tenant admission limits; ``None`` disables a dimension.

    ``rate`` is sustained submissions/second through a token bucket of
    ``burst`` capacity (defaulting to ``rate``); ``max_queued`` caps
    the tenant's backlog and ``max_inflight`` its concurrently-running
    tasks (enforced at dispatch: excess messages wait in queue).
    """

    rate: Optional[float] = None
    burst: Optional[float] = None
    max_queued: Optional[int] = None
    max_inflight: Optional[int] = None

    def __post_init__(self):
        if self.rate is not None and self.rate <= 0:
            raise ValidationError("rate must be positive (or None)")
        if self.burst is not None and self.burst < 1:
            raise ValidationError("burst must be >= 1 (or None)")
        if self.max_queued is not None and self.max_queued < 1:
            raise ValidationError("max_queued must be >= 1 (or None)")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValidationError("max_inflight must be >= 1 (or None)")


class TokenBucket:
    """Deterministic token bucket: a pure function of the ``now``
    values it is fed (the caller injects the clock), never of wall
    time, so replays with a scripted clock reproduce every decision."""

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst < 1:
            raise ValidationError("rate must be > 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._updated is None:
            self._updated = now
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self, now: float) -> bool:
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self, now: float) -> float:
        """Seconds until one token will be available."""
        self._refill(now)
        deficit = 1.0 - self._tokens
        return deficit / self.rate if deficit > 0 else 0.0


# ------------------------------------------------------------- breaker


@dataclass
class _BreakerEntry:
    """Mutable per-task-name breaker bookkeeping."""

    state: str = BREAKER_CLOSED
    failures: int = 0
    trips: int = 0
    open_until: float = 0.0
    probe_task_id: Optional[str] = None


class CircuitBreaker:
    """Per-task-name circuit breaker over dead-letter outcomes.

    A task name that dead-letters ``threshold`` times consecutively
    *opens*: submissions fail fast with ``breaker_open`` instead of
    burning worker time and redeliveries on a poisoned job class.
    After a seeded backoff (``backoff.backoff(name, trips)`` — the same
    deterministic machinery task retries use) the breaker goes
    *half-open* and admits exactly one probe; a successful probe closes
    it, any other terminal outcome of the probe re-opens it with the
    next backoff step.  ``threshold=None`` disables the breaker.
    """

    def __init__(
        self,
        threshold: Optional[int] = None,
        backoff: Optional[RetryPolicy] = None,
        seed: int = 0,
    ):
        if threshold is not None and threshold < 1:
            raise ValidationError(
                "breaker threshold must be >= 1 (or None to disable)"
            )
        self.threshold = threshold
        self.backoff = backoff or RetryPolicy(
            base_delay=0.5,
            multiplier=2.0,
            max_delay=30.0,
            jitter=0.1,
            seed=seed,
        )
        self._entries: Dict[str, _BreakerEntry] = {}

    def _entry(self, name: str) -> _BreakerEntry:
        if name not in self._entries:
            self._entries[name] = _BreakerEntry()
        return self._entries[name]

    def allow(
        self, name: str, task_id: str, now: float
    ) -> Tuple[bool, float]:
        """May a submission of ``name`` enter? Returns (allowed,
        retry_after); an open->half-open transition claims ``task_id``
        as the probe."""
        if self.threshold is None:
            return True, 0.0
        entry = self._entry(name)
        if entry.state == BREAKER_CLOSED:
            return True, 0.0
        if entry.state == BREAKER_OPEN:
            if now >= entry.open_until:
                entry.state = BREAKER_HALF_OPEN
                entry.probe_task_id = task_id
                return True, 0.0
            return False, entry.open_until - now
        # Half-open: one probe at a time.
        if entry.probe_task_id is None:
            entry.probe_task_id = task_id
            return True, 0.0
        return False, max(0.0, entry.open_until - now)

    def note_terminal(
        self,
        name: str,
        task_id: str,
        success: bool,
        dead_letter: bool,
        now: float,
    ) -> Optional[str]:
        """Feed a terminal task outcome; returns ``"tripped"`` /
        ``"closed"`` when the state machine moved, else None."""
        if self.threshold is None:
            return None
        entry = self._entry(name)
        if success:
            entry.failures = 0
            if entry.state != BREAKER_CLOSED:
                entry.state = BREAKER_CLOSED
                entry.trips = 0
                entry.probe_task_id = None
                return "closed"
            return None
        if dead_letter:
            entry.failures += 1
        probe_failed = (
            entry.state == BREAKER_HALF_OPEN
            and entry.probe_task_id == task_id
        )
        if probe_failed or (
            dead_letter
            and entry.state == BREAKER_CLOSED
            and entry.failures >= self.threshold
        ):
            return self._trip(name, entry, now)
        return None

    def _trip(self, name: str, entry: _BreakerEntry, now: float) -> str:
        entry.trips += 1
        entry.state = BREAKER_OPEN
        entry.open_until = now + self.backoff.backoff(name, entry.trips)
        entry.probe_task_id = None
        entry.failures = 0
        return "tripped"

    def state(self, name: str) -> str:
        entry = self._entries.get(name)
        return BREAKER_CLOSED if entry is None else entry.state

    def states(self) -> Dict[str, str]:
        return {
            name: entry.state for name, entry in self._entries.items()
        }


# ---------------------------------------------------------- controller


@dataclass
class _TenantCounts:
    """Live per-tenant ledger: backlog and running tasks."""

    queued: int = 0
    running: int = 0


@dataclass
class Decision:
    """One admission decision, in submission order.

    ``seq`` is the decision's position in the log; the sequence of
    ``(outcome, reason)`` pairs is the determinism contract — two
    identically-seeded runs with an injected clock produce identical
    logs.
    """

    seq: int
    outcome: str  # accept | reject | shed | coalesce
    task_name: str
    tenant: str
    priority: str
    reason: Optional[str] = None
    retry_after: float = 0.0


@dataclass
class OverflowRecord:
    """A dead-letter-style parking record for shed/rejected bulk work.

    Carries everything needed to resubmit later (``replay_overflow``):
    the submission's name, payload, tenant, priority, and retry
    configuration.  ``reason`` is ``"rejected"`` (refused at the door)
    or ``"shed"`` (evicted from the queue to admit urgent work).
    """

    seq: int
    reason: str
    task_name: str
    tenant: str
    priority: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    timeout: Optional[float] = None
    max_retries: int = 0
    retry_policy: Optional[RetryPolicy] = None
    task_id: Optional[str] = None


class AdmissionController:
    """Tenant-aware admission policy in front of the broker.

    The scheduler app consults :meth:`decide` before enqueuing and
    feeds back lifecycle events (:meth:`note_accepted`,
    :meth:`may_start`, :meth:`note_requeued`, :meth:`note_terminal`,
    :meth:`note_shed`) so the quota ledger and circuit breaker track
    reality.  All timing flows through the injected ``clock`` — the
    default is :func:`time.monotonic`, tests inject a scripted clock
    and get bit-identical decision sequences.
    """

    def __init__(
        self,
        default_limits: Optional[TenantLimits] = None,
        tenant_limits: Optional[Dict[str, TenantLimits]] = None,
        breaker_threshold: Optional[int] = None,
        breaker_backoff: Optional[RetryPolicy] = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        overflow_limit: int = DEFAULT_OVERFLOW_LIMIT,
        retry_after_hint: float = 1.0,
    ):
        if overflow_limit < 0:
            raise ValidationError("overflow_limit must be >= 0")
        if retry_after_hint <= 0:
            raise ValidationError("retry_after_hint must be positive")
        self.default_limits = default_limits or TenantLimits()
        self.tenant_limits = dict(tenant_limits or {})
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, backoff=breaker_backoff, seed=seed
        )
        self.seed = seed
        self.overflow_limit = overflow_limit
        self.retry_after_hint = retry_after_hint
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self._counts: Dict[str, _TenantCounts] = {}
        self._decisions: List[Decision] = []
        self._overflow: List[OverflowRecord] = []
        self._seq = 0

    # ----------------------------------------------------------- policy

    def limits_for(self, tenant: str) -> TenantLimits:
        return self.tenant_limits.get(tenant, self.default_limits)

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        limits = self.limits_for(tenant)
        if limits.rate is None:
            return None
        if tenant not in self._buckets:
            self._buckets[tenant] = TokenBucket(
                rate=limits.rate,
                burst=limits.burst if limits.burst is not None
                else max(1.0, limits.rate),
            )
        return self._buckets[tenant]

    def _tenant(self, tenant: str) -> _TenantCounts:
        if tenant not in self._counts:
            self._counts[tenant] = _TenantCounts()
        return self._counts[tenant]

    def decide(self, message: "TaskMessage") -> None:
        """Gate one submission; raises :class:`AdmissionRejected`.

        Checks, in order: circuit breaker (fail fast for a poisoned
        task class), the tenant's token-bucket rate, the tenant's
        backlog quota.  Queue capacity is the broker's to enforce —
        the app resolves saturation (displace or shed) with
        :meth:`reject_saturated` / :meth:`note_shed`.
        """
        chaos.fire(
            "admission.decide",
            task_name=message.task_name,
            task_id=message.task_id,
            tenant=message.tenant,
            priority=message.priority,
        )
        now = self._clock()
        with self._lock:
            allowed, retry_after = self.breaker.allow(
                message.task_name, message.task_id, now
            )
            if not allowed:
                self._reject_locked(message, "breaker_open", retry_after)
            bucket = self._bucket(message.tenant)
            if bucket is not None and not bucket.try_acquire(now):
                self._reject_locked(
                    message, "rate_limited", bucket.retry_after(now)
                )
            limits = self.limits_for(message.tenant)
            counts = self._tenant(message.tenant)
            if (
                limits.max_queued is not None
                and counts.queued >= limits.max_queued
            ):
                self._reject_locked(
                    message, "tenant_quota", self.retry_after_hint
                )

    def reject_saturated(self, message: "TaskMessage") -> None:
        """Refuse a submission because the queue is at its bound.

        Bulk submissions are parked in the overflow log (replayable);
        every caller gets a ``retry_after`` either way.  Always raises.
        """
        with self._lock:
            parked = False
            if (
                priority_level(message.priority) >= BULK_LEVEL
                and len(self._overflow) < self.overflow_limit
            ):
                self._overflow.append(
                    self._overflow_record_locked(message, "rejected")
                )
                parked = True
            self._reject_locked(
                message, "queue_full", self.retry_after_hint, parked=parked
            )

    def _reject_locked(
        self,
        message: "TaskMessage",
        reason: str,
        retry_after: float,
        parked: bool = False,
    ) -> None:
        self._log_locked(
            "reject", message, reason=reason, retry_after=retry_after
        )
        get_metrics().counter(
            "admission_rejected_total",
            "Submissions refused by the admission controller",
        ).inc(reason=reason)
        get_event_log().emit(
            "admission.rejected",
            task_name=message.task_name,
            tenant=message.tenant,
            priority=message.priority,
            reason=reason,
            retry_after=retry_after,
            parked=parked,
        )
        raise AdmissionRejected(
            reason,
            message.task_name,
            message.tenant,
            message.priority,
            retry_after,
            parked=parked,
        )

    # -------------------------------------------------- lifecycle feed

    def note_accepted(self, message: "TaskMessage") -> None:
        """The message made it into the queue."""
        with self._lock:
            self._tenant(message.tenant).queued += 1
            self._log_locked("accept", message)
        get_metrics().counter(
            "admission_accepted_total",
            "Submissions admitted into the broker queue",
        ).inc(tenant=message.tenant, priority=message.priority)

    def note_coalesced(self, message: "TaskMessage") -> None:
        """The submission coalesced onto an in-flight single-flight
        leader — nothing entered the queue, nothing is charged to the
        tenant's backlog (the dedup stays cross-tenant)."""
        with self._lock:
            self._log_locked("coalesce", message)

    def may_start(self, message: "TaskMessage") -> bool:
        """Dispatch gate: may a worker start this message now?

        Enforces the tenant's ``max_inflight``; a True return moves the
        message from the tenant's backlog to its running count.  On
        False the worker requeues the message and serves other lanes.
        """
        with self._lock:
            limits = self.limits_for(message.tenant)
            counts = self._tenant(message.tenant)
            if (
                limits.max_inflight is not None
                and counts.running >= limits.max_inflight
            ):
                return False
            counts.queued = max(0, counts.queued - 1)
            counts.running += 1
            return True

    def note_requeued(self, message: "TaskMessage") -> None:
        """A reclaimed (lease-expired) message went back in the queue."""
        with self._lock:
            counts = self._tenant(message.tenant)
            counts.running = max(0, counts.running - 1)
            counts.queued += 1

    def note_terminal(
        self, message: "TaskMessage", state_value: Optional[str]
    ) -> None:
        """A message reached a terminal state; settle the ledger and
        feed the circuit breaker."""
        now = self._clock()
        with self._lock:
            counts = self._tenant(message.tenant)
            counts.running = max(0, counts.running - 1)
            moved = self.breaker.note_terminal(
                message.task_name,
                message.task_id,
                success=state_value == "SUCCESS",
                dead_letter=state_value == "DEAD_LETTER",
                now=now,
            )
            breaker_state = self.breaker.state(message.task_name)
        self._report_breaker(message.task_name, breaker_state)
        if moved == "tripped":
            chaos.fire(
                "breaker.trip",
                task_name=message.task_name,
                state=breaker_state,
            )
            get_metrics().counter(
                "breaker_trips_total",
                "Circuit-breaker openings, per task name",
            ).inc(task_name=message.task_name)
            get_event_log().emit(
                "breaker.tripped",
                task_name=message.task_name,
                state=breaker_state,
            )
        elif moved == "closed":
            get_event_log().emit(
                "breaker.closed", task_name=message.task_name
            )

    def note_shed(self, message: "TaskMessage") -> None:
        """A queued message was evicted to admit more urgent work; park
        it in the overflow log (bounded) and account for it."""
        with self._lock:
            counts = self._tenant(message.tenant)
            counts.queued = max(0, counts.queued - 1)
            parked = len(self._overflow) < self.overflow_limit
            if parked:
                self._overflow.append(
                    self._overflow_record_locked(message, "shed")
                )
            self._log_locked("shed", message, reason="queue_full")
        get_metrics().counter(
            "admission_shed_total",
            "Queued messages evicted under overload",
        ).inc(priority=message.priority)
        get_event_log().emit(
            "admission.shed",
            task_name=message.task_name,
            task_id=message.task_id,
            tenant=message.tenant,
            priority=message.priority,
            parked=parked,
        )

    def _report_breaker(self, task_name: str, state: str) -> None:
        get_metrics().gauge(
            "breaker_state",
            "Circuit-breaker state per task name "
            "(0 closed, 1 half-open, 2 open)",
        ).set(BREAKER_STATE_VALUE[state], task_name=task_name)

    # ------------------------------------------------- logs & overflow

    def _log_locked(
        self,
        outcome: str,
        message: "TaskMessage",
        reason: Optional[str] = None,
        retry_after: float = 0.0,
    ) -> None:
        self._decisions.append(
            Decision(
                seq=self._seq,
                outcome=outcome,
                task_name=message.task_name,
                tenant=message.tenant,
                priority=message.priority,
                reason=reason,
                retry_after=retry_after,
            )
        )
        self._seq += 1

    def _overflow_record_locked(
        self, message: "TaskMessage", reason: str
    ) -> OverflowRecord:
        get_metrics().counter(
            "admission_overflowed_total",
            "Bulk submissions parked in the overflow log",
        ).inc(reason=reason)
        return OverflowRecord(
            seq=self._seq,
            reason=reason,
            task_name=message.task_name,
            tenant=message.tenant,
            priority=message.priority,
            args=message.args,
            kwargs=dict(message.kwargs),
            timeout=message.timeout,
            max_retries=message.max_retries,
            retry_policy=message.retry_policy,
            task_id=message.task_id,
        )

    def decision_log(self) -> List[Decision]:
        """Every decision so far, in order (the determinism contract)."""
        with self._lock:
            return list(self._decisions)

    def overflow_records(self) -> List[OverflowRecord]:
        with self._lock:
            return list(self._overflow)

    def pop_overflow(
        self, limit: Optional[int] = None
    ) -> List[OverflowRecord]:
        """Remove and return up to ``limit`` parked records (FIFO), for
        replay once load clears."""
        with self._lock:
            count = len(self._overflow) if limit is None else limit
            records = self._overflow[:count]
            del self._overflow[:count]
            return records

    def stats(self) -> Dict[str, Any]:
        """Snapshot for operators (the ``repro admit stats`` verb)."""
        with self._lock:
            outcomes: Dict[str, int] = {}
            rejects: Dict[str, int] = {}
            for decision in self._decisions:
                outcomes[decision.outcome] = (
                    outcomes.get(decision.outcome, 0) + 1
                )
                if decision.outcome == "reject" and decision.reason:
                    rejects[decision.reason] = (
                        rejects.get(decision.reason, 0) + 1
                    )
            return {
                "decisions": len(self._decisions),
                "outcomes": outcomes,
                "rejected_by_reason": rejects,
                "overflow": len(self._overflow),
                "tenants": {
                    tenant: {
                        "queued": counts.queued,
                        "running": counts.running,
                    }
                    for tenant, counts in sorted(self._counts.items())
                },
                "breakers": self.breaker.states(),
            }
