#!/usr/bin/env python3
"""Use-case 2: the Linux boot-test cross product (regenerating Fig 8).

Sweeps 480 configurations — 2 boot types x 5 LTS kernels x 4 CPU models x
3 memory systems x 4 core counts — built by
:func:`repro.art.studies.boot_tests`, then launched with the
Celery-style scheduler the way the paper's launch script ends: one task
wrapping ``run_job`` on a ``SchedulerApp``, ``apply_async`` per run (the
app runs each task eagerly, ``run.run()`` whole on this thread, as
Celery does under ``task_always_eager``), then ``get`` each, which
re-raises a run's own exception, as Celery's does, once ``run()`` has
recorded it ``failed``.  ``repro boot-tests`` builds
the same experiment and launches it with ``Experiment.launch`` (the
planner) instead.  Then renders the pass/fail grids and the failure
taxonomy the paper reports (kvm all-pass; Atomic unsupported on Ruby;
Timing/O3 limited to one core on classic; O3
panics/segfaults/deadlocks/timeouts).

Run with:  python examples/boot_tests.py
"""

import collections

from repro.analysis import status_grid
from repro.art import ArtifactDB, boot_tests, run_job
from repro.art.studies import BOOT_AXES
from repro.guest import BOOT_TEST_KERNEL_VERSIONS
from repro.scheduler import SchedulerApp


def main() -> None:
    experiment = boot_tests(ArtifactDB())
    runs = experiment.create_runs()
    print(f"launching {len(runs)} boot tests ...")
    app = SchedulerApp(name="gem5art")
    run_task = app.task(name="gem5art.run_job")(run_job)
    handles = [
        run_task.apply_async(args=(run,), kwargs={}) for run in runs
    ]
    for handle in handles:
        handle.get()

    # One grid per (boot type, cpu model): rows = kernels, columns =
    # (memory system, cores) -- the layout of the paper's Fig 8 panels.
    columns = [
        f"{mem[:2]}{cores}"
        for mem in BOOT_AXES["memory_system"]
        for cores in BOOT_AXES["num_cpus"]
    ]
    records = experiment.records()
    grids = collections.defaultdict(dict)
    for record in records:
        kernel = record["stack"].removeprefix("linux-")
        column = f"{record['memory_system'][:2]}{record['num_cpus']}"
        grids[(record["boot_type"], record["cpu_type"])][
            (kernel, column)
        ] = record["outcome"]
    for boot in BOOT_AXES["boot_type"]:
        for cpu in BOOT_AXES["cpu_type"]:
            print(
                "\n"
                + status_grid(
                    grids[(boot, cpu)],
                    BOOT_TEST_KERNEL_VERSIONS,
                    columns,
                    title=f"boot={boot} cpu={cpu} "
                    "(cl=classic MI=MI_example ME=MESI_Two_Level)",
                )
            )

    # The paper's O3 failure taxonomy.
    counts = collections.Counter(
        record["outcome"] for record in records if record["cpu_type"] == "o3"
    )
    print("\nO3 outcome counts (paper: 27 panics, 11 segfaults, "
          "4 deadlocks, rest timeouts; ~40% success):")
    for status, count in sorted(counts.items()):
        print(f"  {status:<14} {count}")


if __name__ == "__main__":
    main()
