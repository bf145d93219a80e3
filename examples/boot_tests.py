#!/usr/bin/env python3
"""Use-case 2: the Linux boot-test cross product (regenerating Fig 8).

Sweeps 480 configurations — 2 boot types x 5 LTS kernels x 4 CPU models x
3 memory systems x 4 core counts — through gem5art with the Celery-style
scheduler, the way the paper's launch script ends: one task wrapping
``run_job`` on a ``SchedulerApp``, ``apply_async`` per run (the app runs
each task eagerly, ``run.run()`` whole on this thread, as Celery does
under ``task_always_eager``), then ``get`` each, which re-raises (as a
``StateError``) a run that raised, as Celery's does, once ``run()``
has recorded it ``failed``.  ``repro boot-tests`` sweeps the same grid
through the planner (``run_jobs_scheduler``) instead.  Then renders
the pass/fail grids and the failure taxonomy the paper reports (kvm
all-pass; Atomic unsupported on Ruby; Timing/O3 limited to one core on
classic; O3 panics/segfaults/deadlocks/timeouts).

Run with:  python examples/boot_tests.py
"""

import collections
import itertools

from repro.analysis import run_records, status_grid
from repro.art import (
    ArtifactDB,
    Gem5Run,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_job,
)
from repro.guest import BOOT_TEST_KERNEL_VERSIONS, get_kernel
from repro.resources import build_resource
from repro.scheduler import SchedulerApp
from repro.sim import Gem5Build

CPU_TYPES = ("kvm", "atomic", "timing", "o3")
MEMORY_SYSTEMS = ("classic", "MI_example", "MESI_Two_Level")
CORE_COUNTS = (1, 2, 4, 8)
BOOT_TYPES = ("init", "systemd")


def main() -> None:
    db = ArtifactDB()
    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(
        db,
        "gem5-resources",
        url="https://gem5.googlesource.com/public/gem5-resources",
        version="c5f5c70",
    )
    gem5_binary = register_gem5_binary(
        db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
    )
    boot_image = build_resource("boot-exit").image
    disk = register_disk_image(db, boot_image, inputs=[resources_repo])
    kernels = {
        version: register_kernel_binary(db, get_kernel(version))
        for version in BOOT_TEST_KERNEL_VERSIONS
    }

    runs = []
    for boot, version, cpu, mem, cores in itertools.product(
        BOOT_TYPES, BOOT_TEST_KERNEL_VERSIONS, CPU_TYPES,
        MEMORY_SYSTEMS, CORE_COUNTS,
    ):
        runs.append(
            Gem5Run.create_fs_run(
                db,
                gem5_artifact=gem5_binary,
                gem5_git_artifact=gem5_repo,
                run_script_git_artifact=resources_repo,
                linux_binary_artifact=kernels[version],
                disk_image_artifact=disk,
                cpu_type=cpu,
                num_cpus=cores,
                memory_system=mem,
                boot_type=boot,
            )
        )
    print(f"launching {len(runs)} boot tests ...")
    app = SchedulerApp(name="gem5art")
    run_task = app.task(name="gem5art.run_job")(run_job)
    handles = [
        run_task.apply_async(args=(run,), kwargs={}) for run in runs
    ]
    for handle in handles:
        handle.get()

    records = run_records(db)
    # One grid per (boot type, cpu model): rows = kernels, columns =
    # (memory system, cores) -- the layout of the paper's Fig 8 panels.
    columns = [
        f"{mem[:2]}{cores}"
        for mem in MEMORY_SYSTEMS
        for cores in CORE_COUNTS
    ]
    for boot in BOOT_TYPES:
        for cpu in CPU_TYPES:
            cells = {}
            for record in records:
                if record["boot_type"] != boot or record["cpu_type"] != cpu:
                    continue
                kernel = record["workload"].split("linux-")[1].split(".sys")[0]
                kernel = kernel.split(".init")[0].split(".partial")[0]
                column = (
                    f"{record['memory_system'][:2]}{record['num_cpus']}"
                )
                cells[(kernel, column)] = record["simulation_status"]
            print(
                "\n"
                + status_grid(
                    cells,
                    BOOT_TEST_KERNEL_VERSIONS,
                    columns,
                    title=f"boot={boot} cpu={cpu} "
                    "(cl=classic MI=MI_example ME=MESI_Two_Level)",
                )
            )

    # The paper's O3 failure taxonomy.
    o3 = [r for r in records if r["cpu_type"] == "o3"]
    counts = collections.Counter(r["simulation_status"] for r in o3)
    print("\nO3 outcome counts (paper: 27 panics, 11 segfaults, "
          "4 deadlocks, rest timeouts; ~40% success):")
    for status, count in sorted(counts.items()):
        print(f"  {status:<14} {count}")


if __name__ == "__main__":
    main()
