"""A job-scheduler substrate — the Celery / multiprocessing substitute.

gem5art hands run objects to an external task manager: Celery when runs
span machines, or the Python multiprocessing library for a single host.
This package provides those API shapes:

- :class:`ProcessPool` — the *real* multiprocessing substrate, the only
  place a sweep's simulations leave the planner (:mod:`repro.art.tasks`):
  forked worker processes fed pickle-safe :class:`JobEnvelope` s,
  with redelivery of the job a dead worker held, a deadline per job
  and telemetry merge-on-drain (``substrate="processes"``);
- :class:`SimplePool` — a ``multiprocessing.Pool``-like pool of threads
  for users who want no scheduler at all (the paper's third option);
- :class:`SchedulerApp` — a Celery-like application on a
  :class:`SimplePool`: ``@app.task`` functions, ``apply_async``, task
  states, retries, timeouts, a result backend — the launch-script tail
  of ``examples/boot_tests.py`` (the sweep planner does not use it: on
  one interpreter a worker thread adds no parallelism).

Only :mod:`~repro.scheduler.procpool` is imported with the package.  The
thread-pool half (``SchedulerApp``, ``AsyncResult``, ``ResultBackend``,
``TaskState``, ``SimplePool``, ``PoolResult``) is imported on first use:
it pulls in ``concurrent.futures`` (≈ 6 ms and 0.75 MiB at start-up) and
no sweep needs it.
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
    "SimplePool": "pool",
    "PoolResult": "pool",
}

__all__ = [
    "TaskState",
    "AsyncResult",
    "ResultBackend",
    "SchedulerApp",
    "SimplePool",
    "PoolResult",
    "JobEnvelope",
    "ProcessPool",
    "ProcJobHandle",
    "WorkerJobError",
]


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
