"""A job-scheduler substrate — the Celery / multiprocessing substitute.

gem5art hands run objects to an external task manager: Celery when runs
span machines, or the Python multiprocessing library for a single host.
This package provides those API shapes:

- :class:`SchedulerApp` — a Celery-like application over worker
  threads: ``@app.task`` functions, ``apply_async``, task states,
  retries, timeouts, a result backend — the launch-script tail of
  ``examples/boot_tests.py`` (the sweep planner does not use it: on one
  interpreter a worker thread adds no parallelism);
- :class:`ProcessPool` — the *real* multiprocessing substrate, the only
  place a sweep's simulations leave the planner (:mod:`repro.art.tasks`):
  spawn-safe worker processes fed pickle-safe :class:`JobEnvelope` s,
  with redelivery of the job a dead worker held, a deadline per job
  and telemetry merge-on-drain (``substrate="processes"``);
- :class:`SimplePool` — a ``multiprocessing.Pool``-like fallback for
  users who want no scheduler at all (the paper's third option).
"""

from repro.scheduler.states import TaskState
from repro.scheduler.result import AsyncResult, ResultBackend
from repro.scheduler.broker import Broker, TaskMessage
from repro.scheduler.app import SchedulerApp
from repro.scheduler.procpool import (
    JobEnvelope,
    ProcessPool,
    ProcJobHandle,
    WorkerJobError,
)

__all__ = [
    "TaskState",
    "AsyncResult",
    "ResultBackend",
    "Broker",
    "TaskMessage",
    "SchedulerApp",
    "SimplePool",
    "PoolResult",
    "JobEnvelope",
    "ProcessPool",
    "ProcJobHandle",
    "WorkerJobError",
]


def __getattr__(name: str):
    """``SimplePool`` / ``PoolResult``, imported on first use: their
    module pulls in ``concurrent.futures`` (≈ 6 ms and 0.75 MiB at
    start-up) and no sweep needs it."""
    if name in ("SimplePool", "PoolResult"):
        from repro.scheduler import pool

        return getattr(pool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
