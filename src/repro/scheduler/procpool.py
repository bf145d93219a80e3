"""Process-parallel sharded execution — the real multiprocessing substrate.

The paper offers the Python multiprocessing library as the lighter-weight
alternative to Celery for driving gem5art's 480-run boot-test cross
product.  Threads cannot deliver that for a GIL-bound pure-Python
simulator; :class:`ProcessPool` shards jobs across real OS processes:

- jobs travel as **pickle-safe** :class:`JobEnvelope` s — a dotted-path
  target (importable under the ``spawn`` start method) plus picklable
  arguments;
- each worker process executes one envelope at a time and ships the
  outcome back over its own result pipe; the pool has **no thread** of
  its own: ``submit`` hands a job straight to an idle worker, and every
  wait runs one loop on the caller's thread that blocks on every result
  pipe and every worker's process sentinel, so a result completes its
  handle the moment it is readable;
- a worker's death is an event that loop already waits on: the
  sentinel fires, whatever the dead worker flushed is salvaged (a
  finished result wins), the seat is respawned and the job it still
  held is **redelivered** at the front of the queue — bounded by a
  redelivery budget, then dead-lettered; a worker that dies idle is
  replaced at the next submit or wait;
- a job's deadline (:attr:`JobEnvelope.timeout`) is enforced where the
  job can be stopped: the loop's wait wakes at the nearest one,
  fails the handle as timed out, vacates the seat and kills the
  process — a wedged worker is a dead worker, back through the same
  recovery path with nothing to redeliver;
- per-process telemetry buffers (metrics + events recorded inside the
  worker) are merged into the parent's session when results drain.

The pool stays below the planner (:mod:`repro.art.tasks`): coalescing,
the result cache and the database live in the parent; only simulations
ship to workers.  One thread drives a pool at a time — the planner,
which is always waiting while work is out.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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
    """Parent-side handle for one submitted envelope; waiting on it
    drives its pool on the calling thread."""

    def __init__(self, envelope: JobEnvelope, pool: "ProcessPool"):
        self.envelope = envelope
        self._pool = pool
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
        if self._done:
            return  # late result for an already-failed/abandoned job
        self._value = value
        self._error = error
        self.timed_out = timed_out
        self.worker = worker
        self._done = True

    def ready(self) -> bool:
        return self._done

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._pool._pump(self.ready, timeout)

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
    guarantees the pool never depends on forked parent state.  It moves
    only inside :meth:`submit` and the waits, on the caller's thread.
    """

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValidationError("process pool needs at least one worker")
        self.worker_count = workers
        self._context = multiprocessing.get_context("spawn")
        self._pending: "deque[ProcJobHandle]" = deque()
        self._slots: List[_WorkerSlot] = []
        self._closed = False

    # ------------------------------------------------------------- submit

    def submit(self, envelope: JobEnvelope) -> ProcJobHandle:
        """Queue an envelope and hand it to an idle worker, if one is
        free; returns its handle immediately."""
        chaos.fire(
            "procpool.submit",
            task_id=envelope.task_id,
            target=envelope.target,
        )
        if self._closed:
            raise StateError("process pool is shut down")
        if not self._slots:
            self._slots = [
                self._spawn_slot(index) for index in range(self.worker_count)
            ]
        handle = ProcJobHandle(envelope, self)
        self._pending.append(handle)
        self._recover_lost_workers()
        self._assign_pending()
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
        handle = self._pump(
            lambda: next(filter(ProcJobHandle.ready, handles), None), None
        )
        return handle, handle._value, handle._error, handle.timed_out

    # ------------------------------------------------------------ workers

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

    # --------------------------------------------------------------- pump

    def _pump(self, done: Callable[[], Any], timeout: Optional[float]) -> Any:
        """Recover, dispatch, then block — one loop, on the caller's
        thread, until ``done()`` is truthy or ``timeout`` seconds have
        passed; returns what ``done()`` last said.

        The only place the pool waits: on every worker's result pipe and
        process sentinel — a result and a death are each an event —
        until the nearer of the caller's timeout and the nearest
        deadline of a seated job: nothing else changes what the loop
        would do.
        """
        # Imported here so only a pool in use pays for the module
        # (sockets, selectors, tempfile): every CLI verb imports this one.
        from multiprocessing.connection import wait

        until = math.inf if timeout is None else time.monotonic() + timeout
        while True:
            self._recover_lost_workers()
            self._assign_pending()
            found = done()
            if found or time.monotonic() >= until:
                return found
            nearest = min(
                [until]
                + [s.current._deadline for s in self._slots if s.current]
            )
            ready = wait(
                [slot.outbox for slot in self._slots]
                + [slot.process.sentinel for slot in self._slots],
                None
                if nearest == math.inf
                else max(0.0, nearest - time.monotonic()),
            )
            for slot in self._slots:
                if slot.outbox in ready:
                    self._drain_outbox(slot)
            self._stop_overdue()

    def _assign_pending(self) -> None:
        """Hand queued jobs to idle workers, one job per worker.

        Each job travels as one parent-pickled wire message.  One, not a
        batch: a seat holds one job, which is what lets a death or a
        deadline name the job it takes with it.  Shared payloads are
        delta-encoded against the slot's intern mirror: a content hash
        this worker has already received ships as a reference, not a
        payload.  Dead workers were replaced just before; one that dies
        under the write keeps its job for its sentinel to redeliver.
        """
        for slot in self._slots:
            if not self._pending:
                break
            if slot.current is not None:
                continue
            handle = slot.current = self._pending.popleft()
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

    def _stop_overdue(self) -> None:
        """Fail the job of every seat past its deadline as timed out,
        vacate the seat and kill the process; its sentinel then takes
        it through :meth:`_recover_lost_workers`, holding nothing."""
        now = time.monotonic()
        for slot in self._slots:
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
        """The one recovery path: for every worker whose process has
        ended, salvage what it flushed, respawn the seat, and redeliver
        (or, past the budget, fail) the job it still held."""
        for index, slot in enumerate(self._slots):
            if slot.alive():
                continue
            # A result the worker flushed before dying completes its
            # handle and vacates the seat: a finished job is not
            # redelivered.  A seat its deadline vacated has nothing to
            # salvage: a result that lost that race is dropped.
            if slot.current is not None:
                self._drain_outbox(slot)
            slot.close()
            self._slots[index] = self._spawn_slot(index)
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
        if handle._deliveries > DEFAULT_MAX_REDELIVERIES:
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
        """Fail every job still outstanding with a
        :class:`WorkerJobError` (no waiter may hang on an abandoned
        pool), terminate the workers and close every pipe."""
        self._closed = True
        slots, self._slots = self._slots, []
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

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
