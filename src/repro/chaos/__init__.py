"""Seed-driven chaos engineering for the experiment stack.

The resilience contract of this codebase — a dead worker fails only the
run it held, crash-resumable experiments whose resume is the one retry,
content-verified blobs — is only credible if every recovery path is
*exercised*.  This package provides the exerciser: a deterministic fault
injector whose failure schedule is a pure function of a seed, so any
failure a chaos test provokes can be replayed exactly from ``(seed,
rules)`` alone.  Reproducibility includes
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
                        failed verdict: the pipeline ends ``failed``)
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

Only the hook lives here: with no injector installed, :func:`fire` reads
one global and returns.  The rule engine (:mod:`repro.chaos.injector`)
loads on first use of one of its names (the ``_LAZY`` table), so a
sweep without chaos never imports it.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Optional

from repro.common.errors import ValidationError

if TYPE_CHECKING:
    from repro.chaos.injector import ChaosInjector

#: Lazily imported name -> the submodule defining it.  Nothing but a
#: chaos test builds an injector, so a sweep never loads the rule
#: engine: the hook below is all production code calls.
_LAZY = {
    "ACTIONS": "injector",
    "ChaosInjector": "injector",
    "FaultRule": "injector",
    "WorkerCrashed": "injector",
    "injected": "injector",
}


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        # Cached: the next lookup is a plain module attribute.
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ------------------------------------------------------ global installation

_injector: Optional[ChaosInjector] = None


def install(injector: ChaosInjector) -> ChaosInjector:
    """Make ``injector`` the process-wide injector (one at a time)."""
    global _injector
    if _injector is not None:
        raise ValidationError("a chaos injector is already installed")
    _injector = injector
    return injector


def uninstall() -> None:
    global _injector
    _injector = None


def active() -> Optional[ChaosInjector]:
    return _injector


def fire(point: str, **context: Any) -> None:
    """Failure-point hook for production code; no-op unless installed
    (one global read)."""
    injector = _injector
    if injector is not None:
        injector.fire(point, **context)


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
