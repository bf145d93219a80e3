"""Task execution — the paper's Fig 5 launch-script tail.

Run objects are plain callables that any task manager can launch.
:func:`run_jobs_scheduler` is the one planner every sweep goes through
(``Experiment.launch``, the CLI and the pipeline runner; on
``substrate="processes"`` it is the paper's multiprocessing option).
It owns the database: every run's
:meth:`~repro.art.run.Gem5Run.begin` and
:meth:`~repro.art.run.Gem5Run.finish` — cache and checkpoint consults,
outcome writes, blob uploads, cache stores — happen on the thread that
called it, and **only simulations leave that thread**, as pure functions
of their arguments: to a :class:`~repro.scheduler.ProcessPool` worker
process (``processes``) or nowhere (``inline``).  Both substrates are
executors with the same four verbs, driven by one loop.  :func:`run_job`
(``run.run()`` whole, on the caller's thread) is the paper's
no-scheduler launch-script tail, the reference the planner is tested
against.
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence

from repro.art.run import (
    Attempt,
    Gem5Run,
    InputResolver,
    RunStatus,
    boot_checkpoint,
    simulate_run,
)
from repro.art.spec import SUBSTRATES
from repro.common.errors import ValidationError
from repro.telemetry import get_event_log, get_metrics, get_tracer

if TYPE_CHECKING:
    from repro.art.checkpoints import CheckpointStore


def run_job(run: Gem5Run) -> Dict[str, object]:
    """Execute one run synchronously (the no-scheduler option)."""
    return run.run()


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


class _Inline:
    """``inline``: each simulation runs right here, on the planner's
    thread, the moment it is begun, and its outcome waits for
    :meth:`wait_any`.  One is in flight at a time, so each run is
    finished before the next begins.  Nothing can stop a simulation
    here: one that returns late is judged by
    :meth:`~repro.art.run.Gem5Run.finish`, as on every path."""

    substrate, in_flight = "inline", 1

    def simulate(self, run: Gem5Run, resolver: InputResolver, restore):
        return self._call(
            run, simulate_run, run.kind, run.params, resolver.live(run),
            restore,
        )

    def boot(self, run: Gem5Run, resolver: InputResolver):
        return self._call(run, boot_checkpoint, run.params, resolver.live(run))

    def _call(self, run: Gem5Run, function, *args):
        try:
            self._outcome = function(*args), None, False
        except Exception:
            import traceback

            self._outcome = None, traceback.format_exc(), False
        return run.run_id

    def wait_any(self, keys):
        (key,) = keys
        return (key, *self._outcome)

    def shutdown(self) -> None:
        pass


class _Processes:
    """``processes``: envelopes straight to a :class:`ProcessPool` —
    nothing of the parent stands between this thread and the pipe
    write, and this thread drives the pool: its :meth:`wait_any` reads
    results, replaces dead workers and kills a worker at its deadline.
    Two simulations per worker are out: no worker waits for this
    thread, no sweep piles up payloads."""

    substrate = "processes"

    def __init__(self, worker_count: int):
        from repro.scheduler import ProcessPool

        self.in_flight = 2 * worker_count
        self.pool = pool = ProcessPool(workers=worker_count)
        self.wait_any, self.shutdown = pool.wait_any, pool.shutdown

    def simulate(self, run: Gem5Run, resolver: InputResolver, restore):
        from repro.art.procjobs import envelope_for_run

        return self.pool.submit(
            envelope_for_run(run, resolver.wire(run), restore)
        )

    def boot(self, run: Gem5Run, resolver: InputResolver):
        from repro.art.procjobs import envelope_for_boot

        return self.pool.submit(envelope_for_boot(run, resolver.wire(run)))


def _drive(executor, ready: Deque, start, land) -> None:
    """The one completion-order loop, over the executor's window.

    ``start(item)`` begins an item on this thread and returns the key
    the executor gave its simulation (None: it settled without one);
    ``land(item, value, error, timed_out)`` finishes it on this thread
    once the executor has it completed; either may put more work at the
    front of ``ready``.  At most ``executor.in_flight`` simulations are
    out at once.
    """
    in_flight: Dict[object, object] = {}
    while ready or in_flight:
        while ready and len(in_flight) < executor.in_flight:
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
    resolver: InputResolver,
    executor,
) -> Dict[str, object]:
    """Stage 1 of the planner: one boot checkpoint per unique prefix.

    For each prefix group this thread consults the store and, on a
    miss, has the group's first run booted through :func:`_drive` on
    ``executor`` and stores what came back.  The plan's keys are
    unique, so nothing can race a boot.  Returns ``{prefix:
    checkpoint-or-None}``; a None cohort (an unbootable platform, a
    boot job that failed) degrades to full boots downstream.
    """
    plan = group_runs_by_prefix(runs)
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
        return executor.boot(runs[plan[prefix][0]], resolver)

    def land(prefix: str, checkpoint, error, timed_out):
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
        ok = error is None and run.status is RunStatus.DONE
        summaries[index] = run.results if ok else {
            "success": False,
            "timed_out": run.status is RunStatus.TIMED_OUT,
            "error": error or run.results["error"],
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
    substrate: str = "inline",
    use_checkpoints: bool = False,
) -> List[Dict[str, object]]:
    """Plan and execute a sweep: boot stage, then one simulation per run.

    ``substrate`` picks where the simulations execute:

    - ``"inline"`` (the default) runs each on the calling thread, one
      at a time, with no job manager at all;
    - ``"processes"`` ships them to :class:`~repro.scheduler.ProcessPool`
      worker processes for real CPU parallelism.

    Both go through one loop: coalescing, caching and every database
    write stay on the calling thread — only simulations leave it, and
    only on ``processes`` — and runs are finished in the order their
    simulations complete.  A simulation that raises is the run's
    recorded result (a ``failed`` document and a ``success: False``
    summary), never an abort of the sweep.  On ``processes``
    ``run.timeout`` travels with the simulation and the pool kills a
    worker that outlives it; a simulation that returns past it, on
    either substrate, is timed out by
    :meth:`~repro.art.run.Gem5Run.finish`.  Either way this thread
    records the same ``timed_out`` document and reports the same
    ``success: False`` summary rather than raising.

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
    if worker_count < 1:
        raise ValidationError(
            f"worker_count must be >= 1 (got {worker_count})"
        )
    executor = (
        _Processes(worker_count) if substrate == "processes" else _Inline()
    )
    store: Optional[CheckpointStore] = None
    if use_checkpoints and runs:
        from repro.art.checkpoints import CheckpointStore

        store = CheckpointStore(runs[0].db)
    # Dies with this call: a later sweep on the same connection re-reads
    # (and re-verifies) its artifacts.
    resolver = InputResolver()
    with ExitStack() as stages:
        stages.callback(executor.shutdown)
        if store is not None:
            run_boot_stage(runs, store, resolver, executor)
            stages.enter_context(
                get_tracer().span(
                    "stage.variants", attributes={"runs": len(runs)}
                )
            )
        return _run_variants(runs, executor, use_cache, store, resolver)
