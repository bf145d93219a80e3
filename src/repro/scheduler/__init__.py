"""A job-scheduler substrate — the Celery / multiprocessing substitute.

gem5art hands run objects to an external task manager: Celery when runs
span machines, or the Python multiprocessing library for a single host.
This package provides those API shapes:

- :class:`ProcessPool` — the multiprocessing substrate, the only place
  a sweep's simulations leave the planner (:mod:`repro.art.tasks`,
  ``substrate="processes"``):
  forked worker processes fed pickle-safe :class:`JobEnvelope` s, with
  redelivery of the job a dead worker held, a deadline per job and
  telemetry merge-on-drain;
- :class:`SchedulerApp` — a Celery-like application: ``@app.task``
  functions, ``apply_async``, task states, retries, timeouts, a result
  backend — the launch-script tail of ``examples/boot_tests.py``.  It
  runs each task eagerly on the caller's thread, as Celery does under
  ``task_always_eager``.

The package starts no thread.  Only :mod:`~repro.scheduler.procpool` is
imported with the package; the ``SchedulerApp`` half (``SchedulerApp``,
``AsyncResult``, ``ResultBackend``, ``TaskState``) is imported on first
use, since no sweep needs it.
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
    "TaskState": "states",
    "AsyncResult": "result",
    "ResultBackend": "result",
    "SchedulerApp": "app",
}

__all__ = [
    "TaskState",
    "AsyncResult",
    "ResultBackend",
    "SchedulerApp",
    "JobEnvelope",
    "ProcessPool",
    "ProcJobHandle",
    "WorkerJobError",
]


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        # Cached: the next lookup is a plain module attribute.
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
