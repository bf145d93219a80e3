"""Task execution — the paper's Fig 5 launch-script tail.

Run objects are plain callables that any task manager can launch.
:func:`run_jobs_scheduler` is the one planner every sweep goes through
(``Experiment.launch``, the CLI, the pipeline runner).  It owns the
database: every run's :meth:`~repro.art.run.Gem5Run.begin` and
:meth:`~repro.art.run.Gem5Run.finish` — cache and checkpoint consults,
status writes, blob uploads, cache stores — happen on the thread that
called it, and **only simulations leave that thread**, as pure functions
of their arguments: to a task of the Celery-like
:class:`~repro.scheduler.SchedulerApp` (``threads``), to a
:class:`~repro.scheduler.ProcessPool` worker process (``processes``) or
nowhere (``inline``).  :func:`run_job` and :func:`run_jobs_pool` are the
paper's literal launch-script tail (``multiprocessing``'s ``apply_async``
over ``run.run``), the reference the planner is tested against.
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack
from typing import Deque, Dict, List, Optional, Sequence

from repro.art.checkpoints import CheckpointStore
from repro.art.procjobs import envelope_for_boot, envelope_for_run
from repro.art.run import (
    Attempt,
    Gem5Run,
    InputResolver,
    RunStatus,
    boot_checkpoint,
    simulate_run,
)
from repro.common.errors import ValidationError
from repro.scheduler import ProcessPool, SchedulerApp
from repro.telemetry import get_event_log, get_metrics, get_tracer

#: Where a sweep's simulations execute.
SUBSTRATES = ("inline", "threads", "processes")


def run_job(run: Gem5Run) -> Dict[str, object]:
    """Execute one run synchronously (the no-scheduler option)."""
    return run.run()


def run_jobs_pool(
    runs: Sequence[Gem5Run], processes: int = 4
) -> List[Dict[str, object]]:
    """Execute runs through the multiprocessing-style pool, preserving
    input order in the returned summaries.

    The submitting thread's span context is captured here and re-parented
    on each pool thread (pool threads cannot see the submitter's
    thread-local span stack)."""
    from repro.scheduler import SimplePool  # deferred: see its __getattr__

    tracer = get_tracer()
    parent = tracer.current_context_dict()

    def execute(run: Gem5Run) -> Dict[str, object]:
        with tracer.activate(parent):
            return run_job(run)

    with SimplePool(processes=processes) as pool:
        handles = [pool.apply_async(execute, (run,)) for run in runs]
        return [handle.get() for handle in handles]


def group_runs_by_prefix(
    runs: Sequence[Gem5Run],
) -> Dict[str, List[int]]:
    """Group run indices by boot-prefix fingerprint.

    The planner's first step: every key is one boot to pay for, every
    value the variant cohort that shares it.  Runs without a prefix
    (GPU runs) are omitted — they have no boot stage.
    """
    plan: Dict[str, List[int]] = {}
    for index, run in enumerate(runs):
        prefix = run.prefix
        if prefix is None:
            continue
        plan.setdefault(prefix, []).append(index)
    return plan


class _Threads:
    """``threads``: the two pure functions as tasks of a private
    :class:`SchedulerApp`, whose helper thread is the deadline: a thread
    can only be abandoned, and then holds live inputs, no database."""

    substrate = "threads"

    def __init__(self, worker_count: int):
        self.worker_count = worker_count
        app = SchedulerApp(name="gem5art", worker_count=worker_count)
        self._simulate = app.task(name="gem5art.simulate")(simulate_run)
        self._boot = app.task(name="gem5art.boot")(boot_checkpoint)
        self.wait_any, self.shutdown = app.backend.wait_any, app.shutdown

    def simulate(self, run: Gem5Run, resolver: InputResolver, restore):
        return self._simulate.apply_async(
            args=(run.kind, run.params, resolver.live(run), restore),
            timeout=run.timeout,
        ).task_id

    def boot(self, run: Gem5Run, resolver: InputResolver):
        return self._boot.apply_async(
            args=(run.params, resolver.live(run))
        ).task_id


class _Processes:
    """``processes``: envelopes straight to a :class:`ProcessPool` —
    nothing of the parent stands between this thread and the pipe
    write, and the pool's reactor is the deadline."""

    substrate = "processes"

    def __init__(self, worker_count: int):
        self.worker_count = worker_count
        self.pool = pool = ProcessPool(workers=worker_count)
        self.wait_any, self.shutdown = pool.wait_any, pool.shutdown

    def simulate(self, run: Gem5Run, resolver: InputResolver, restore):
        return self.pool.submit(
            envelope_for_run(run, resolver.wire(run), restore)
        )

    def boot(self, run: Gem5Run, resolver: InputResolver):
        return self.pool.submit(envelope_for_boot(run, resolver.wire(run)))


def _drive(executor, ready: Deque, start, land) -> None:
    """The one completion-order loop, over a bounded window.

    ``start(item)`` begins an item on this thread and returns the key
    the executor gave its simulation (None: it settled without one);
    ``land(item, value, error, timed_out)`` finishes it on this thread
    once the executor has it completed; either may put more work at the
    front of ``ready``.  At most ``2 × worker_count`` simulations are
    out: no worker waits for this thread, no sweep piles up payloads.
    """
    in_flight: Dict[object, object] = {}
    while ready or in_flight:
        while ready and len(in_flight) < 2 * executor.worker_count:
            item = ready.popleft()
            key = start(item)
            if key is not None:
                in_flight[key] = item
        if in_flight:
            key, value, error, timed_out = executor.wait_any(in_flight)
            land(in_flight.pop(key), value, error, timed_out)


def run_boot_stage(
    runs: Sequence[Gem5Run],
    store: CheckpointStore,
    resolver: Optional[InputResolver] = None,
    executor=None,
) -> Dict[str, object]:
    """Stage 1 of the planner: one boot checkpoint per unique prefix.

    For each prefix group this thread consults the store and, on a
    miss, has the group's first run booted — here, in plan order,
    without an ``executor`` (the inline substrate), else through
    :func:`_drive` — and stores what came back.  The plan's keys are
    unique, so nothing can race a boot.  Returns ``{prefix:
    checkpoint-or-None}``; a None cohort (an unbootable platform, a
    boot job that failed) degrades to full boots downstream.
    """
    plan = group_runs_by_prefix(runs)
    resolver = resolver or InputResolver()
    checkpoints: Dict[str, object] = {}

    def start(prefix: str):
        checkpoints[prefix] = store.get(prefix)
        if checkpoints[prefix] is not None:
            return None
        get_metrics().counter(
            "checkpoint_boots_total",
            "Full boots executed to populate the checkpoint store",
        ).inc()
        get_event_log().emit("checkpoint.boot", prefix=prefix)
        representative = runs[plan[prefix][0]]
        if executor is not None:
            return executor.boot(representative, resolver)
        return land(prefix, representative.take_boot_checkpoint(resolver))

    def land(prefix: str, checkpoint, error=None, timed_out=False):
        if error is not None:
            get_event_log().emit(
                "checkpoint.boot_failed", prefix=prefix, error=error
            )
        elif checkpoint is not None:
            checkpoints[prefix] = checkpoint
            store.store(prefix, checkpoint)

    with get_tracer().span(
        "stage.boot",
        attributes={"prefixes": len(plan), "runs": len(runs)},
    ):
        if executor is None:
            for prefix in plan:
                start(prefix)
        else:
            _drive(executor, deque(plan), start, land)
    return checkpoints


def _run_variants(
    runs: Sequence[Gem5Run],
    executor,
    use_cache: bool,
    store: Optional[CheckpointStore],
    resolver: InputResolver,
) -> List[Dict[str, object]]:
    """Stage 2: one simulation per run through :func:`_drive`."""
    summaries: List[Dict[str, object]] = [{} for _ in runs]
    attempts: Dict[int, Attempt] = {}
    # Coalescing is decided here, from the run list, before anything is
    # submitted: the first index carrying a fingerprint leads; later
    # ones form a chain behind it, each link released when the one
    # before it has settled.
    leaders: Dict[str, int] = {}
    followers: Dict[int, List[int]] = {}
    ready: Deque[int] = deque()
    for index, run in enumerate(runs):
        leader = leaders.setdefault(run.fingerprint, index)
        if leader == index or not use_cache:
            ready.append(index)
        else:
            followers.setdefault(leader, []).append(index)

    def settle(index: int, error: Optional[str] = None) -> None:
        run = runs[index]
        summaries[index] = run.results if error is None else {
            "success": False,
            "timed_out": run.status is RunStatus.TIMED_OUT,
            "error": error,
            "run_id": run.run_id,
        }
        chain = followers.pop(index, None)
        if chain:
            # The next link adopts what this one cached or — when it
            # left nothing (failed, timed out) — runs like any other
            # point and ends on its own record.
            followers[chain[0]] = chain[1:]
            ready.appendleft(chain[0])

    def start(index: int):
        run, attempt = runs[index], None
        try:
            attempt = run.begin(
                use_cache, store, resolver, substrate=executor.substrate
            )
            if attempt is not None:
                with get_tracer().activate(attempt.span):
                    key = executor.simulate(run, resolver, attempt.restore)
                attempts[index] = attempt
                return key
        except Exception as error:
            if attempt is not None:
                run.fail(attempt, str(error))
            return settle(index, str(error))
        if use_cache and leaders[run.fingerprint] != index:
            get_metrics().counter(
                "runcache_coalesced_total",
                "Duplicate runs that adopted their leader's result "
                "instead of being enqueued",
            ).inc()
        return settle(index)

    def land(index: int, outcome, error, timed_out) -> None:
        run, attempt = runs[index], attempts.pop(index)
        try:
            if error is None:
                run.finish(attempt, outcome)
            else:
                run.fail(attempt, error, timed_out)
        except Exception as failure:
            error = str(failure)
        settle(index, error)

    _drive(executor, ready, start, land)
    return summaries


def run_jobs_scheduler(
    runs: Sequence[Gem5Run],
    worker_count: int = 4,
    use_cache: bool = True,
    substrate: str = "threads",
    use_checkpoints: bool = False,
) -> List[Dict[str, object]]:
    """Plan and execute a sweep: boot stage, then one simulation per run.

    ``substrate`` picks where the simulations execute:

    - ``"inline"`` runs them on the calling thread, in order, with no
      job manager at all; a raising run propagates;
    - ``"threads"`` hands them to the Celery-like scheduler app's
      worker threads (one interpreter: concurrency, not parallelism);
    - ``"processes"`` ships them to :class:`~repro.scheduler.ProcessPool`
      worker processes for real CPU parallelism.

    Coalescing, caching and every database write stay on the calling
    thread on every substrate — only simulations leave it — and runs
    are finished in the order their simulations complete.  On the
    scheduled substrates ``run.timeout`` travels with the simulation
    and is enforced where it executes (the app abandons the helper
    thread, the pool kills the worker process); this thread records
    ``timed_out`` in the run document and reports a ``timed_out``
    summary rather than raising.

    With ``use_cache`` (the default), runs carrying equal spec
    fingerprints are **coalesced** by the run list, not by timing: the
    first is the leader and executes; later ones are never enqueued and
    adopt its cached result once it has finished — or, when it left no
    cache entry (it failed or timed out), run like any other point and
    end on their own record.  ``use_cache=False`` disables the cache
    consult and the coalescing: every run simulates.

    With ``use_checkpoints`` a boot stage first takes one checkpoint per
    unique boot-prefix fingerprint into the :class:`CheckpointStore` of
    the first run's database, and each variant then restores the boot
    its cohort already paid for; a prefix whose boot fails degrades
    that cohort back to full boots.  See ``docs/scaling.md``.
    """
    if substrate not in SUBSTRATES:
        raise ValidationError(
            f"unknown substrate {substrate!r} (expected one of "
            f"{SUBSTRATES})"
        )
    executor = None
    if substrate != "inline":
        executor = (_Threads if substrate == "threads" else _Processes)(
            worker_count
        )
    store: Optional[CheckpointStore] = None
    if use_checkpoints and runs:
        store = CheckpointStore(runs[0].db)
    # Dies with this call: a later sweep on the same connection re-reads
    # (and re-verifies) its artifacts.
    resolver = InputResolver()
    with ExitStack() as stages:
        if executor is not None:
            stages.callback(executor.shutdown)
        if store is not None:
            run_boot_stage(runs, store, resolver, executor)
            stages.enter_context(
                get_tracer().span(
                    "stage.variants", attributes={"runs": len(runs)}
                )
            )
        if executor is not None:
            return _run_variants(runs, executor, use_cache, store, resolver)
        return [
            run.run(
                use_cache=use_cache, checkpoint_store=store, resolver=resolver
            )
            for run in runs
        ]
