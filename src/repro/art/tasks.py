"""Task execution — the paper's Fig 5 launch-script tail.

Run objects are plain callables that any task manager can launch.
:func:`run_jobs_scheduler` is the one planner every sweep goes through
(``Experiment.launch``, the CLI, the pipeline runner): it stages the
boot phase, then executes one ``job(index)`` closure per run on the
chosen *substrate* — the calling thread, the Celery-like
:class:`~repro.scheduler.SchedulerApp`'s worker threads, or a
:class:`~repro.scheduler.ProcessPool` behind it.  :func:`run_job` and
:func:`run_jobs_pool` are the paper's literal launch-script tail
(``multiprocessing``'s ``apply_async`` over ``run.run``) and serve as
the reference the planner is tested against.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Dict, List, Optional, Sequence

from repro.art.cache import RunCache
from repro.art.checkpoints import CheckpointStore
from repro.art.run import Gem5Run, InputResolver
from repro.common.errors import ValidationError
from repro.sim.checkpoint import Checkpoint
from repro.scheduler import ProcessPool, SchedulerApp, TaskState
from repro.telemetry import get_metrics, get_tracer

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


def run_boot_stage(
    runs: Sequence[Gem5Run],
    store: CheckpointStore,
    worker_count: int = 4,
    pool: Optional[ProcessPool] = None,
    resolver: Optional[InputResolver] = None,
) -> Dict[str, object]:
    """Stage 1 of the planner: one boot checkpoint per unique prefix.

    Groups the sweep by prefix fingerprint and drives one
    ``take_boot_checkpoint`` job per group — in this process, or as a
    boot envelope on the process pool.  Distinct prefixes boot
    concurrently on up to ``worker_count`` threads; with one worker (the
    inline substrate) or one prefix they boot on the calling thread, in
    plan order.  Boot leadership is single-flighted through the
    store, so racing stages (or racing experiments sharing one store)
    still produce exactly one boot per prefix.  Returns
    ``{prefix: checkpoint-or-None}``; a None cohort degrades to full
    boots downstream.  ``resolver`` is the planner's memo of the sweep's
    input artifacts (the stage's own when called alone).
    """
    plan = group_runs_by_prefix(runs)
    resolver = resolver or InputResolver()

    def boot_one(prefix: str) -> object:
        representative = runs[plan[prefix][0]]

        def boot():
            if pool is None:
                return representative.take_boot_checkpoint(resolver)
            from repro.art.procjobs import envelope_for_boot

            outcome = pool.submit(
                envelope_for_boot(
                    representative, resolver.wire(representative)
                )
            ).result()
            if outcome["checkpoint"] is None:
                return None
            return Checkpoint.from_dict(outcome["checkpoint"])

        return store.get_or_boot(prefix, boot)

    checkpoints: Dict[str, object] = {}
    with get_tracer().span(
        "stage.boot",
        attributes={"prefixes": len(plan), "runs": len(runs)},
    ):
        boot_threads = min(worker_count, len(plan))
        if boot_threads <= 1:
            for prefix in plan:
                checkpoints[prefix] = boot_one(prefix)
        else:
            # Boots for distinct prefixes are independent; drive them
            # concurrently (on the process substrate each thread only
            # blocks on a pool handle, so worker processes fill up).
            from repro.scheduler import SimplePool  # deferred, as above

            with SimplePool(processes=boot_threads) as boot_pool:
                handles = {
                    prefix: boot_pool.apply_async(boot_one, (prefix,))
                    for prefix in plan
                }
                for prefix, handle in handles.items():
                    checkpoints[prefix] = handle.get()
    return checkpoints


def run_jobs_scheduler(
    runs: Sequence[Gem5Run],
    worker_count: int = 4,
    use_cache: bool = True,
    substrate: str = "threads",
    use_checkpoints: bool = False,
) -> List[Dict[str, object]]:
    """Plan and execute a sweep: boot stage, then one job per run.

    ``substrate`` picks where the jobs execute:

    - ``"inline"`` runs them on the calling thread, in order, with no
      job manager at all; a raising run propagates;
    - ``"threads"`` submits them to the Celery-like scheduler app and
      runs them on its worker threads (GIL-bound but zero-overhead);
    - ``"processes"`` does the same, and each job ships its
      simulation to a :class:`~repro.scheduler.ProcessPool` worker
      process for real CPU parallelism.

    Coalescing, caching and every database write stay in the parent on
    every substrate — only simulations cross the process boundary.

    On the scheduled substrates each job's gem5art timeout
    (``run.timeout``) is enforced by the scheduler; jobs that exceed it
    are reported with a ``timed_out`` summary rather than raising, since
    a timeout is a recorded outcome for the database.  Jobs are
    fail-fast: the first failure is the recorded one.

    With ``use_cache`` (the default), runs carrying equal spec
    fingerprints are **coalesced**, and which ones is a property of the
    run list, not of timing: the first run with a fingerprint is its
    leader and executes; every later one is a follower, is never
    enqueued, and adopts the leader's cached result into its own run
    document when the collect loop reaches it.  A follower whose leader
    left no cache entry (it failed or timed out) is submitted like any
    other run and ends on its own record.  ``use_cache=False`` disables
    both the cache consult and the coalescing — every run simulates.

    With ``use_checkpoints`` the sweep runs as a **staged pipeline**:
    the runs are grouped by boot-prefix fingerprint, a boot stage takes
    one checkpoint per unique prefix (single-flighted through the
    :class:`CheckpointStore` of the first run's database), and only
    then does the variant stage
    fan out — each variant job carrying ``restore_from`` so it skips
    the boot its cohort already paid for.  A prefix whose boot fails
    degrades that cohort back to full boots; nothing is lost but time.
    """
    if substrate not in SUBSTRATES:
        raise ValidationError(
            f"unknown substrate {substrate!r} (expected one of "
            f"{SUBSTRATES})"
        )
    pool = (
        ProcessPool(workers=worker_count)
        if substrate == "processes"
        else None
    )
    store: Optional[CheckpointStore] = None
    if use_checkpoints and runs:
        store = CheckpointStore(runs[0].db)
    # Dies with this call: a later sweep on the same connection re-reads
    # (and re-verifies) its artifacts.
    resolver = InputResolver()

    def job(index: int) -> Dict[str, object]:
        if pool is not None:
            return runs[index].run_in_pool(
                pool,
                use_cache=use_cache,
                checkpoint_store=store,
                resolver=resolver,
            )
        return runs[index].run(
            use_cache=use_cache, checkpoint_store=store, resolver=resolver
        )

    stages = ExitStack()
    app: Optional[SchedulerApp] = None
    try:
        if store is not None:
            run_boot_stage(
                runs,
                store,
                worker_count=1 if substrate == "inline" else worker_count,
                pool=pool,
                resolver=resolver,
            )
            stages.enter_context(
                get_tracer().span(
                    "stage.variants", attributes={"runs": len(runs)}
                )
            )
        if substrate == "inline":
            return [job(index) for index in range(len(runs))]
        app = SchedulerApp(name="gem5art", worker_count=worker_count)
        run_gem5_job = app.task(name="gem5art.run_gem5_job")(job)

        def submit(index: int):
            return run_gem5_job.apply_async(
                args=(index,), timeout=runs[index].timeout
            )

        # Coalescing is decided here, from the run list, before anything
        # is submitted: the first index carrying a fingerprint leads,
        # later ones follow and are not enqueued.
        leaders: Dict[str, int] = {}
        handles = {}
        for index, run in enumerate(runs):
            if use_cache and (
                leaders.setdefault(run.fingerprint, index) != index
            ):
                continue
            handles[index] = submit(index)
        summaries: List[Dict[str, object]] = []
        for index, run in enumerate(runs):
            if index not in handles:
                # A follower: its leader sits earlier in the list, so it
                # has been collected.  Adopt what it cached so the
                # database records this point too — or, when it left
                # nothing (failed, timed out), run like any other point.
                adopted = RunCache(run.db).consult(run.fingerprint)
                if adopted is not None:
                    get_metrics().counter(
                        "runcache_coalesced_total",
                        "Duplicate runs that adopted their leader's "
                        "result instead of being enqueued",
                    ).inc()
                    summaries.append(run.adopt_cached(adopted))
                    continue
                handles[index] = submit(index)
            task_id = handles[index].task_id
            state = app.backend.wait(task_id)
            record = app.backend.record(task_id)
            if state is TaskState.SUCCESS:
                summaries.append(record["result"])
            else:
                summaries.append(
                    {
                        "success": False,
                        "timed_out": state is TaskState.TIMEOUT,
                        "scheduler_state": state.value,
                        "error": record["error"],
                        "run_id": run.run_id,
                    }
                )
        return summaries
    finally:
        stages.close()
        if app is not None:
            app.shutdown()
        if pool is not None:
            pool.shutdown()
