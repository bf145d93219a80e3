"""Process-parallel sharded execution — the real multiprocessing substrate.

The paper offers the Python multiprocessing library as the lighter-weight
alternative to Celery for driving gem5art's 480-run boot-test cross
product.  Threads cannot deliver that for a GIL-bound pure-Python
simulator; :class:`ProcessPool` shards jobs across real OS processes:

- jobs travel as **pickle-safe** :class:`JobEnvelope` s — a dotted-path
  target (importable under the ``spawn`` start method) plus picklable
  arguments;
- each worker process executes one envelope at a time and ships the
  outcome back over its own result pipe; one parent-side **reactor**
  thread blocks on every result pipe, every worker's process sentinel
  and a wake pipe, so a result completes its handle the moment it is
  readable and a dead worker is replaced the moment it dies;
- a worker's death is an event the reactor already waits on: the
  sentinel fires, whatever the dead worker flushed is salvaged (a
  finished result wins), the seat is respawned and the job it still
  held is **redelivered** at the front of the queue — bounded by a
  redelivery budget, then dead-lettered;
- a job's deadline (:attr:`JobEnvelope.timeout`) is enforced where the
  job can be stopped: the reactor's wait wakes at the nearest one,
  fails the handle as timed out, vacates the seat and kills the
  process — a wedged worker is a dead worker, back through the same
  recovery path with nothing to redeliver;
- per-process telemetry buffers (metrics + events recorded inside the
  worker) are merged into the parent's session when results drain.

The pool stays below the planner (:mod:`repro.art.tasks`): coalescing,
the result cache and the database live in the parent; only simulations
ship to workers.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import chaos
from repro.common.errors import StateError, ValidationError
from repro.common.ids import new_uuid
from repro.common.targets import resolve_target
from repro.telemetry import (
    get_event_log,
    get_metrics,
    merge_worker_telemetry,
)

#: Extra deliveries a job may receive after worker crashes before it is
#: failed outright (the first delivery is not a *re*-delivery).
DEFAULT_MAX_REDELIVERIES = 3

#: Marker key for an interned-payload reference inside envelope args.
#: ``{"__intern__": <content hash>}`` is replaced, inside the worker,
#: with the payload shipped once under that hash — see :func:`intern_ref`.
INTERN_KEY = "__intern__"


def intern_ref(content_hash: str) -> Dict[str, str]:
    """An envelope-arg placeholder for a shared, content-hashed payload.

    Builders put ``intern_ref(h)`` where a large repeated value (artifact
    payload, checkpoint document) would go and supply the value itself in
    ``JobEnvelope.shared[h]``.  The pool ships each hash to each worker
    at most once; subsequent envelopes carry only the reference.
    """
    return {INTERN_KEY: content_hash}


def _resolve_interned(value: Any, cache: Dict[str, Any]) -> Any:
    """Replace ``intern_ref`` placeholders with their cached payloads."""
    if isinstance(value, dict):
        if set(value.keys()) == {INTERN_KEY}:
            content_hash = value[INTERN_KEY]
            if content_hash not in cache:
                raise KeyError(
                    f"interned payload {content_hash!r} was never "
                    "shipped to this worker"
                )
            return cache[content_hash]
        return {k: _resolve_interned(v, cache) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_resolve_interned(v, cache) for v in value)
    return value


class WorkerJobError(StateError):
    """A job failed in (or was lost with) its worker process."""


@dataclass(frozen=True)
class JobEnvelope:
    """A pickle-safe description of one unit of work.

    ``target`` is a ``"package.module:function"`` dotted path resolved
    *inside* the worker process — the function object itself never
    crosses the process boundary, which is what makes the envelope safe
    under the ``spawn`` start method (no inherited state, no closures).
    ``args``/``kwargs`` must be picklable data (for gem5art runs, see
    :mod:`repro.art.procjobs`).  ``shared`` maps content hash → payload
    for every :func:`intern_ref` placeholder in them: the pool ships
    each hash to each worker process at most once, so an envelope whose
    payloads a worker has already seen travels as a near-empty delta.
    ``timeout`` is the job's deadline in seconds from its dispatch to a
    worker (None: none); past it the pool fails the handle as timed out
    and kills the worker.
    """

    target: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    task_id: str = field(default_factory=new_uuid)
    telemetry: bool = False
    shared: Dict[str, Any] = field(default_factory=dict)
    timeout: Optional[float] = None

    def __post_init__(self):
        if ":" not in self.target:
            raise ValidationError(
                f"envelope target {self.target!r} must be a "
                "'package.module:function' dotted path"
            )


class ProcJobHandle:
    """Parent-side handle for one submitted envelope; ``completed`` is
    its pool's condition, notified whenever one of the pool's handles
    ends."""

    def __init__(self, envelope: JobEnvelope, completed: threading.Condition):
        self.envelope = envelope
        self._completed = completed
        self._done = False
        self._value: Any = None
        self._error: Optional[str] = None
        self.timed_out = False
        self.worker: Optional[str] = None
        # The pool's own notes: deliveries so far, when it was
        # submitted, and the ``time.monotonic()`` past which the seat
        # holding it is killed.
        self._deliveries = 0
        self._submitted = time.monotonic()
        self._deadline = math.inf

    @property
    def task_id(self) -> str:
        return self.envelope.task_id

    def _complete(
        self,
        value: Any = None,
        error: Optional[str] = None,
        timed_out: bool = False,
        worker: Optional[str] = None,
    ) -> None:
        with self._completed:
            if self._done:
                return  # late result for an already-failed/abandoned job
            self._value = value
            self._error = error
            self.timed_out = timed_out
            self.worker = worker
            self._done = True
            self._completed.notify_all()

    def ready(self) -> bool:
        return self._done

    def wait(self, timeout: Optional[float] = None) -> bool:
        with self._completed:
            return self._completed.wait_for(self.ready, timeout)

    def result(self) -> Any:
        """Block until the job ends (bound the wait with :meth:`wait`)."""
        self.wait()
        if self._error is not None:
            raise WorkerJobError(self._error)
        return self._value


def _worker_main(worker: str, inbox, outbox) -> None:
    """Worker-process loop: execute wire messages until the empty stop
    message (or EOF — the parent is gone).

    Runs in a freshly spawned interpreter; everything it needs arrives
    through the wire.  Each inbox message is one parent-pickled job
    (``{"job": {...}, "shared": {hash: payload}}``).  ``shared``
    payloads are interned in a per-process cache keyed by content hash;
    job arguments reference them via :func:`intern_ref` placeholders, so
    a payload the worker has already seen never crosses the pipe again.
    Telemetry, when requested, is recorded in a private per-process
    session and shipped back inside the result so the parent can merge
    it — worker and parent never share a registry.
    """
    from repro import telemetry as _telemetry

    interned: Dict[str, Any] = {}
    while True:
        try:
            wire = inbox.recv_bytes()
        except EOFError:
            return
        if not wire:
            return
        message = pickle.loads(wire)
        interned.update(message["shared"])
        job = message["job"]
        result: Dict[str, Any] = {
            "task_id": job["task_id"],
            "worker": worker,
            "pid": os.getpid(),
            "ok": False,
            "value": None,
            "error": None,
            "telemetry": None,
        }
        session = _telemetry.enable() if job["telemetry"] else None
        try:
            target = resolve_target(job["target"])
            args = _resolve_interned(job["args"], interned)
            kwargs = _resolve_interned(job["kwargs"], interned)
            result["value"] = target(*args, **kwargs)
            result["ok"] = True
        except Exception:
            result["error"] = traceback.format_exc()
        finally:
            if session is not None:
                result["telemetry"] = {
                    "metrics": session.metrics.collect(),
                    "events": session.events.records(),
                }
                _telemetry.disable()
        try:
            wire = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # The return value is not plain data.  That is the job's
            # failure, not the worker's: say so instead of dying here.
            result.update(ok=False, value=None, error=traceback.format_exc())
            wire = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        outbox.send_bytes(wire)


class _WorkerSlot:
    """One worker seat: the live process, the parent's ends of its
    private inbox/outbox pipes, and the job currently assigned to it
    (at most one at a time, which keeps attribution exact — ``current``
    died, or is killed, with this worker — and means the worker is
    blocked reading whenever the parent writes).

    The outbox is private for a reason: the worker is its only writer,
    so a SIGKILL that lands mid-write can only tear the dying worker's
    own stream — the reader sees EOF after the torn message, the job
    whose result never made it out is still this seat's ``current`` and
    is redelivered, and no other worker shares a lock or a byte stream
    with the corpse.

    ``interned`` mirrors the worker's payload intern cache: content
    hashes already shipped down this seat's pipe.  A respawned worker
    gets a fresh slot, so the mirror can never claim a payload a new
    process has not seen.
    """

    def __init__(self, name: str, process, inbox, outbox):
        self.name = name
        self.process = process
        self.inbox = inbox
        self.outbox = outbox
        self.current: Optional[ProcJobHandle] = None
        self.interned: set = set()

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, wire: bytes) -> None:
        try:
            self.inbox.send_bytes(wire)
        except OSError:
            pass  # died under the write: its sentinel tells

    def close(self) -> None:
        self.inbox.close()
        self.outbox.close()


class ProcessPool:
    """A spawn-safe multiprocessing executor that redelivers the job a
    dead worker held.

    The API is deliberately envelope-shaped rather than function-shaped:
    callers describe work as data (:class:`JobEnvelope`), which is what
    guarantees the pool never depends on forked parent state.
    """

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValidationError("process pool needs at least one worker")
        self.worker_count = workers
        self.max_redeliveries = DEFAULT_MAX_REDELIVERIES
        self._context = multiprocessing.get_context("spawn")
        # One lock guards pending/slot/wake state; pipe transfers to and
        # from workers always happen outside it.
        self._state = threading.Lock()
        self._pending: "deque[ProcJobHandle]" = deque()
        self._slots: List[_WorkerSlot] = []
        self._stop = threading.Event()
        self._completed = threading.Condition()
        self._reactor: Optional[threading.Thread] = None
        # The reactor's doorbell: at most one byte is ever in the pipe
        # (``_woken``), so ringing it under the lock cannot block.
        self._doorbell: Any = None
        self._woken = False

    # ------------------------------------------------------------- submit

    def submit(self, envelope: JobEnvelope) -> ProcJobHandle:
        """Queue an envelope; returns its handle immediately."""
        chaos.fire(
            "procpool.submit",
            task_id=envelope.task_id,
            target=envelope.target,
        )
        handle = ProcJobHandle(envelope, self._completed)
        with self._state:
            if self._stop.is_set():
                raise StateError("process pool is shut down")
            self._pending.append(handle)
            self._ensure_started()
            self._wake()
        get_metrics().counter(
            "procpool_jobs_submitted_total",
            "Envelopes handed to the process pool",
        ).inc()
        return handle

    def wait_any(
        self, handles: Iterable[ProcJobHandle]
    ) -> Tuple[ProcJobHandle, Any, Optional[str], bool]:
        """Block until one of ``handles`` has ended: ``(handle, value,
        error, timed_out)`` — the next completed of a caller that
        finishes jobs in completion order."""
        with self._completed:
            handle = self._completed.wait_for(
                lambda: next(filter(ProcJobHandle.ready, handles), None)
            )
        return handle, handle._value, handle._error, handle.timed_out

    # ------------------------------------------------------------ workers

    def _ensure_started(self) -> None:
        """Spawn the workers and the reactor on first use (``_state``
        held)."""
        if self._reactor is not None:
            return
        doorbell, self._doorbell = self._context.Pipe(duplex=False)
        for index in range(self.worker_count):
            self._slots.append(self._spawn_slot(index))
        self._reactor = threading.Thread(
            target=self._reactor_loop,
            args=(doorbell,),
            name="procpool-reactor",
            daemon=True,
        )
        self._reactor.start()

    def _wake(self) -> None:
        """Ring the reactor's doorbell (``_state`` held)."""
        if self._doorbell is not None and not self._woken:
            self._woken = True
            self._doorbell.send_bytes(b"!")

    def _spawn_slot(self, index: int) -> _WorkerSlot:
        name = f"procpool-worker-{index}"
        jobs, inbox = self._context.Pipe(duplex=False)
        outbox, results = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(name, jobs, results),
            name=name,
            daemon=True,
        )
        try:
            process.start()
        finally:
            # The worker owns the far ends now; with ours closed its
            # death reads as EOF here instead of as silence.
            jobs.close()
            results.close()
        return _WorkerSlot(name, process, inbox, outbox)

    # ------------------------------------------------------------ reactor

    def _reactor_loop(self, doorbell) -> None:
        """Recover, dispatch, then block — one loop.

        The only place the pool waits: on every worker's result pipe and
        process sentinel plus the doorbell — a result, a death and a
        submission are each an event — until the nearest deadline of a
        seated job (no timeout when no seat has one): nothing else
        changes what the loop would do.
        """
        # Imported here so only a pool that starts pays for the module
        # (sockets, selectors, tempfile): every CLI verb imports this one.
        from multiprocessing.connection import wait

        while not self._stop.is_set():
            self._recover_lost_workers()
            self._assign_pending()
            with self._state:
                slots = list(self._slots)
                nearest = min(
                    (s.current._deadline for s in slots if s.current),
                    default=math.inf,
                )
            ready = wait(
                [doorbell]
                + [slot.outbox for slot in slots]
                + [slot.process.sentinel for slot in slots],
                None
                if nearest == math.inf
                else max(0.0, nearest - time.monotonic()),
            )
            if doorbell in ready:
                with self._state:
                    doorbell.recv_bytes()
                    self._woken = False
            for slot in slots:
                if slot.outbox in ready:
                    self._drain_outbox(slot)
            self._stop_overdue(slots)
        doorbell.close()

    def _assign_pending(self) -> None:
        """Hand queued jobs to idle live workers, one job per worker.

        Each job travels as one parent-pickled wire message.  One, not a
        batch: a seat holds one job, which is what lets a death or a
        deadline name the job it takes with it.  Shared payloads are
        delta-encoded against the slot's intern mirror: a content hash
        this worker has already received ships as a reference, not a
        payload.
        """
        assignments: List[Tuple[_WorkerSlot, ProcJobHandle]] = []
        with self._state:
            for slot in self._slots:
                if not self._pending:
                    break
                if slot.current is not None or not slot.alive():
                    continue
                handle = self._pending.popleft()
                slot.current = handle
                assignments.append((slot, handle))
        for slot, handle in assignments:
            handle._deliveries += 1
            handle.worker = slot.name
            envelope = handle.envelope
            shared: Dict[str, Any] = {}
            for content_hash, payload in envelope.shared.items():
                if content_hash not in slot.interned:
                    shared[content_hash] = payload
                    slot.interned.add(content_hash)
            wire = pickle.dumps(
                {
                    "job": {
                        "target": envelope.target,
                        "args": envelope.args,
                        "kwargs": envelope.kwargs,
                        "task_id": envelope.task_id,
                        "telemetry": envelope.telemetry,
                    },
                    "shared": shared,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            get_metrics().counter(
                "transport_bytes_total",
                "Bytes of pickled job transport shipped to workers",
            ).inc(len(wire))
            get_event_log().emit(
                "procpool.dispatch",
                task_id=handle.task_id,
                worker=slot.name,
                delivery=handle._deliveries,
                wire_bytes=len(wire),
                interned=len(shared),
            )
            slot.send(wire)
            if envelope.timeout is not None:
                handle._deadline = time.monotonic() + envelope.timeout

    def _stop_overdue(self, slots: List[_WorkerSlot]) -> None:
        """Fail the job of every seat past its deadline as timed out,
        vacate the seat and kill the process; its sentinel then takes
        it through :meth:`_recover_lost_workers`, holding nothing."""
        now = time.monotonic()
        for slot in slots:
            with self._state:
                handle = slot.current
                if handle is None or handle._deadline > now:
                    continue
                slot.current = None
            get_metrics().counter(
                "procpool_jobs_total", "Jobs by terminal outcome"
            ).inc(outcome="timeout")
            handle._complete(
                error=f"timed out after {handle.envelope.timeout}s",
                timed_out=True,
                worker=slot.name,
            )
            slot.process.kill()
            slot.process.join()

    def _recover_lost_workers(self) -> None:
        """The one recovery path: for every worker whose sentinel fired,
        salvage what it flushed, respawn the seat, and redeliver (or,
        past the budget, fail) the job it still held."""
        with self._state:
            lost = [
                (index, slot)
                for index, slot in enumerate(self._slots)
                if not slot.alive()
            ]
        for index, slot in lost:
            # A result the worker flushed before dying completes its
            # handle and vacates the seat: a finished job is not
            # redelivered.
            self._drain_outbox(slot)
            slot.close()
            replacement = self._spawn_slot(index)
            with self._state:
                self._slots[index] = replacement
                handle, slot.current = slot.current, None
            get_metrics().counter(
                "procpool_workers_lost_total",
                "Worker processes that died and were respawned",
            ).inc()
            get_event_log().emit(
                "procpool.worker_lost",
                worker=slot.name,
                pid=slot.process.pid,
                task_id=None if handle is None else handle.task_id,
            )
            if handle is not None:
                self._redeliver(handle, slot.name)

    def _redeliver(self, handle: ProcJobHandle, worker: str) -> None:
        """Requeue a job lost with ``worker`` at the front, or fail it
        once its redelivery budget is spent."""
        if handle._deliveries > self.max_redeliveries:
            get_event_log().emit(
                "procpool.dead_letter",
                task_id=handle.task_id,
                deliveries=handle._deliveries,
            )
            get_metrics().counter(
                "procpool_jobs_total", "Jobs by terminal outcome"
            ).inc(outcome="lost")
            handle._complete(
                error=(
                    f"job {handle.task_id} lost with worker {worker} "
                    f"after {handle._deliveries} deliveries "
                    "(redelivery budget exhausted)"
                ),
                worker=worker,
            )
            return
        get_metrics().counter(
            "procpool_redeliveries_total",
            "Jobs redelivered after a worker crash",
        ).inc()
        get_event_log().emit(
            "procpool.redelivered",
            task_id=handle.task_id,
            worker=worker,
            delivery=handle._deliveries,
        )
        with self._state:
            self._pending.appendleft(handle)

    # ------------------------------------------------------------ results

    def _drain_outbox(self, slot: _WorkerSlot) -> None:
        """Absorb every result currently readable from one worker's
        outbox.  A worker killed mid-write leaves a truncated message in
        its (private) pipe; that read fails, the pipe is closed with
        the slot, and the job whose result never made it out is
        redelivered with the seat."""
        while slot.outbox.poll():
            try:
                result = pickle.loads(slot.outbox.recv_bytes())
            except EOFError:
                break  # clean end of a dead worker's stream
            except Exception as error:
                # Torn write from a killed worker.
                get_event_log().emit(
                    "procpool.torn_result", error=repr(error)
                )
                break
            self._absorb_result(slot, result)

    def _absorb_result(
        self, slot: _WorkerSlot, result: Dict[str, Any]
    ) -> None:
        """A result can only be for the one job its seat holds."""
        task_id = result["task_id"]
        with self._state:
            handle, slot.current = slot.current, None
        buffer = result.get("telemetry")
        if buffer:
            merge_worker_telemetry(buffer, worker=result["worker"])
        outcome = "ok" if result["ok"] else "error"
        get_metrics().counter(
            "procpool_jobs_total", "Jobs by terminal outcome"
        ).inc(outcome=outcome)
        get_event_log().emit(
            "procpool.result",
            task_id=task_id,
            worker=result["worker"],
            ok=result["ok"],
        )
        get_metrics().histogram(
            "procpool_roundtrip_seconds",
            "Parent-side time from submit() to the handle completing",
        ).observe(time.monotonic() - handle._submitted)
        handle._complete(
            value=result["value"],
            error=result["error"],
            worker=result["worker"],
        )

    # ----------------------------------------------------------- shutdown

    def shutdown(self) -> None:
        """Stop the reactor, fail every job still outstanding with a
        :class:`WorkerJobError` (no waiter may hang on an abandoned
        pool), terminate the workers and close every pipe."""
        self._stop.set()
        with self._state:
            self._wake()
            reactor, self._reactor = self._reactor, None
        if reactor is not None:
            reactor.join(timeout=2.0)
        with self._state:
            slots, self._slots = self._slots, []
            doorbell, self._doorbell = self._doorbell, None
            orphans = [*self._pending] + [
                slot.current for slot in slots if slot.current is not None
            ]
            self._pending.clear()
        for handle in orphans:
            handle._complete(error="process pool shut down")
        for slot in slots:
            if slot.current is not None:
                slot.process.kill()  # mid-job: it would not read a stop
            else:
                slot.send(b"")
        for slot in slots:
            slot.process.join(timeout=2.0)
            if slot.alive():
                slot.process.kill()
                slot.process.join(timeout=2.0)
            slot.close()
        if doorbell is not None:
            doorbell.close()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
