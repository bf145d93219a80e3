"""Seed-driven chaos engineering for the experiment stack.

The resilience contract of this codebase — retries, redelivery after a
worker dies, crash-resumable experiments, content-verified blobs — is only
credible if every recovery path is *exercised*.  This package provides the
exerciser: a deterministic fault injector whose failure schedule is a pure
function of a seed, so any failure a chaos test provokes can be replayed
exactly from ``(seed, rules)`` alone.  Reproducibility includes
reproducing what happens when infrastructure fails.

Failure points wired into production code — the registry: a tier-1 test
(``tests/chaos/test_registry.py``) scans ``src/repro`` for ``chaos.fire``
calls and fails unless the set it finds is exactly this table, and every
point here is named by a ``FaultRule`` in some test:

======================  ====================================================
point                   fired
======================  ====================================================
``filestore.put``       before a blob write (:meth:`FileStore.put_bytes`)
``filestore.get``       before a blob read (:meth:`FileStore.get_bytes`)
``task.run``            inside ``apply_async``, before each attempt of a
                        task body (a crash ends the task ``FAILURE``)
``procpool.submit``     before an envelope is queued on the process pool
``run.status``          before a run's outcome is written (its document)
``runcache.get``        before a run-cache consult reads its entry (a
                        fault is a miss: the run simulates)
``checkpoint.get``      before a checkpoint-store consult reads its entry
                        (a fault is a miss: the run boots in full)
``stagecache.get``      before a stage-cache consult reads its entry (a
                        fault is a miss: the stage executes)
``pipeline.stage``      before a pipeline stage's body executes
``pipeline.gate``       before a pipeline gate is evaluated (a fault is a
                        failed verdict)
``wal.append``          before a WAL record is written (crash here =
                        write accepted but never logged, so never
                        acknowledged)
``compact.publish``     before a compacted segment is renamed into
                        place (crash = only a ``*.tmp`` left behind)
``compact.truncate``    after the segment is published but before the
                        WAL it absorbed is truncated (crash = both on
                        disk; replaying both is a fixed point)
======================  ====================================================

Usage::

    from repro import chaos

    rules = [chaos.FaultRule("filestore.put", probability=0.1)]
    with chaos.injected(seed=7, rules=rules) as injector:
        ...  # one blob write in ten fails; retries must absorb it
    assert injector.report()  # what fired, deterministically
"""

from repro.chaos.injector import (
    ACTIONS,
    ChaosInjector,
    FaultRule,
    WorkerCrashed,
    active,
    fire,
    injected,
    install,
    uninstall,
)

__all__ = [
    "ACTIONS",
    "ChaosInjector",
    "FaultRule",
    "WorkerCrashed",
    "active",
    "fire",
    "injected",
    "install",
    "uninstall",
]
