"""Process-parallel sharded execution — the real multiprocessing substrate.

The paper offers the Python multiprocessing library as the lighter-weight
alternative to Celery for driving gem5art's 480-run boot-test cross
product.  A thread pool cannot deliver that promise for a GIL-bound
pure-Python simulator: every "parallel" run serializes on the interpreter
lock.  :class:`ProcessPool` shards a sweep's jobs across real OS
processes instead:

- jobs travel as **pickle-safe** :class:`JobEnvelope` s — a dotted-path
  target (importable under the ``spawn`` start method) plus plain-data
  arguments, typically built from a content-addressed
  :class:`~repro.art.spec.RunSpec` document;
- each worker process executes one envelope at a time and ships the
  outcome back over its own result pipe; one parent-side **reactor**
  thread blocks on every result pipe, every worker's process sentinel
  and a wake pipe, so a result completes its handle the moment it is
  readable and a dead worker is replaced the moment it dies;
- a worker's death is an event the reactor already waits on: the
  sentinel fires, whatever the dead worker flushed is salvaged (a
  finished result wins), the seat is respawned and the job it still
  held is **redelivered** at the front of the queue — bounded by a
  redelivery budget, then dead-lettered.  A worker that is alive but
  wedged is the task timeout's business, not the pool's;
- per-process telemetry buffers (metrics + events recorded inside the
  worker) are merged into the parent's session when results drain.

The pool deliberately stays below the planner: coalescing of duplicate
runs and the result cache keep living in the parent
(:mod:`repro.art.tasks` / :mod:`repro.art.cache`); only leader
executions ship to workers.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import pickle
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import chaos
from repro.common.errors import StateError, ValidationError
from repro.common.ids import new_uuid
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
    ``args``/``kwargs`` must be plain picklable data; for gem5art runs
    they carry the run's :class:`~repro.art.spec.RunSpec` document plus
    the artifact payloads the simulation needs (see
    :mod:`repro.art.procjobs`).

    ``shared`` maps content hash → payload for every
    :func:`intern_ref` placeholder in ``args``/``kwargs``.  The pool
    ships each hash to each worker process at most once (the worker
    interns it), so an envelope whose payloads a worker has already
    seen travels as a near-empty delta.
    """

    target: str
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    task_id: str = field(default_factory=new_uuid)
    telemetry: bool = False
    shared: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if ":" not in self.target:
            raise ValidationError(
                f"envelope target {self.target!r} must be a "
                "'package.module:function' dotted path"
            )


class ProcJobHandle:
    """Parent-side handle for one submitted envelope."""

    def __init__(self, envelope: JobEnvelope):
        self.envelope = envelope
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[str] = None
        self.host_seconds: float = 0.0
        self.worker: Optional[str] = None

    @property
    def task_id(self) -> str:
        return self.envelope.task_id

    def _complete(
        self,
        value: Any = None,
        error: Optional[str] = None,
        host_seconds: float = 0.0,
        worker: Optional[str] = None,
    ) -> None:
        if self._event.is_set():
            return  # late result for an already-failed/abandoned job
        self._value = value
        self._error = error
        self.host_seconds = host_seconds
        self.worker = worker
        self._event.set()

    def ready(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout=timeout)

    def result(self) -> Any:
        """Block until the job ends (bound the wait with :meth:`wait`)."""
        self._event.wait()
        if self._error is not None:
            raise WorkerJobError(self._error)
        return self._value


class _JobRecord:
    """Mutable parent-side state for one envelope."""

    def __init__(self, envelope: JobEnvelope, handle: ProcJobHandle):
        self.envelope = envelope
        self.handle = handle
        self.deliveries = 0
        self.submitted = time.monotonic()

    @property
    def task_id(self) -> str:
        return self.envelope.task_id


def _resolve_target(spec: str) -> Callable:
    """Import ``"package.module:qualname"`` inside the worker."""
    module_name, _, qualname = spec.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


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
        started = time.monotonic()
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
            target = _resolve_target(job["target"])
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
        result["host_seconds"] = time.monotonic() - started
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
    (at most one at a time, which is what keeps crash attribution exact
    — ``current`` died with this worker — and means the worker is
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
        self.current: Optional[_JobRecord] = None
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
        self._pending: "deque[_JobRecord]" = deque()
        self._slots: List[_WorkerSlot] = []
        self._stop = threading.Event()
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
        handle = ProcJobHandle(envelope)
        record = _JobRecord(envelope, handle)
        with self._state:
            if self._stop.is_set():
                raise StateError("process pool is shut down")
            self._pending.append(record)
            self._ensure_started()
            self._wake()
        get_metrics().counter(
            "procpool_jobs_submitted_total",
            "Envelopes handed to the process pool",
        ).inc()
        return handle

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
        process sentinel plus the doorbell, with no timeout — a result,
        a death and a submission are each an event, and nothing else
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
            ready = wait(
                [doorbell]
                + [slot.outbox for slot in slots]
                + [slot.process.sentinel for slot in slots]
            )
            if doorbell in ready:
                with self._state:
                    doorbell.recv_bytes()
                    self._woken = False
            for slot in slots:
                if slot.outbox in ready:
                    self._drain_outbox(slot)
        doorbell.close()

    def _assign_pending(self) -> None:
        """Hand queued jobs to idle live workers, one job per worker.

        Each job travels as one parent-pickled wire message.  One, not a
        batch: the sweep planner never has more jobs pending than there
        are workers, so a batch could only hand two workers' jobs to
        one.  Shared payloads are delta-encoded against the slot's
        intern mirror: a content hash this worker has already received
        ships as a reference, not a payload.
        """
        assignments: List[Tuple[_WorkerSlot, _JobRecord]] = []
        with self._state:
            for slot in self._slots:
                if not self._pending:
                    break
                if slot.current is not None or not slot.alive():
                    continue
                record = self._pending.popleft()
                slot.current = record
                assignments.append((slot, record))
        for slot, record in assignments:
            record.deliveries += 1
            record.handle.worker = slot.name
            envelope = record.envelope
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
                task_id=record.task_id,
                worker=slot.name,
                delivery=record.deliveries,
                wire_bytes=len(wire),
                interned=len(shared),
            )
            slot.send(wire)

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
                record, slot.current = slot.current, None
            get_metrics().counter(
                "procpool_workers_lost_total",
                "Worker processes that died and were respawned",
            ).inc()
            get_event_log().emit(
                "procpool.worker_lost",
                worker=slot.name,
                pid=slot.process.pid,
                task_id=None if record is None else record.task_id,
            )
            if record is not None:
                self._redeliver(record, slot.name)

    def _redeliver(self, record: _JobRecord, worker: str) -> None:
        """Requeue a job lost with ``worker`` at the front, or fail it
        once its redelivery budget is spent."""
        if record.deliveries > self.max_redeliveries:
            get_event_log().emit(
                "procpool.dead_letter",
                task_id=record.task_id,
                deliveries=record.deliveries,
            )
            get_metrics().counter(
                "procpool_jobs_total", "Jobs by terminal outcome"
            ).inc(outcome="lost")
            record.handle._complete(
                error=(
                    f"job {record.task_id} lost with worker {worker} "
                    f"after {record.deliveries} deliveries "
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
            task_id=record.task_id,
            worker=worker,
            delivery=record.deliveries,
        )
        with self._state:
            self._pending.appendleft(record)

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
            record, slot.current = slot.current, None
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
        ).observe(time.monotonic() - record.submitted)
        record.handle._complete(
            value=result["value"],
            error=result["error"],
            host_seconds=result.get("host_seconds", 0.0),
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
        for record in orphans:
            record.handle._complete(error="process pool shut down")
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
