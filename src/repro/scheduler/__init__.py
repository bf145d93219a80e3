"""A job-scheduler substrate — the Celery / multiprocessing substitute.

gem5art hands run objects to Celery when runs span machines, or to the
Python multiprocessing library on one host.  Here:

- :class:`ProcessPool` — the multiprocessing substrate, where a sweep's
  simulations leave the planner (``substrate="processes"``): forked
  workers fed pickle-safe :class:`JobEnvelope` s; a job lost with its
  worker fails (retrying is the caller's), a deadline per job and
  telemetry merge-on-drain;
- :class:`SchedulerApp` — the Celery surface the paper's launch script
  calls (``@app.task``, ``apply_async``, ``AsyncResult.get``), run
  eagerly on the caller's thread as under ``task_always_eager``.

The package starts no thread.  The ``SchedulerApp`` half is imported on
first use, since no sweep needs it.
"""

import importlib

from repro.scheduler.procpool import (
    JobEnvelope,
    ProcessPool,
    ProcJobHandle,
    WorkerJobError,
)

#: Lazily imported name -> the submodule defining it.
_LAZY = {
    "AsyncResult": "result",
    "ResultBackend": "result",
    "SchedulerApp": "app",
}

__all__ = [
    *_LAZY, "JobEnvelope", "ProcessPool", "ProcJobHandle", "WorkerJobError",
]


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        # Cached: the next lookup is a plain module attribute.
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
