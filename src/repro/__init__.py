"""repro — a full reproduction of "Enabling Reproducible and Agile
Full-System Simulation" (Bruce et al., ISPASS 2021).

The package tree mirrors the paper's architecture:

- :mod:`repro.art` — **gem5art**, the paper's primary contribution:
  artifact registration, run objects, and task execution;
- :mod:`repro.resources` — **gem5-resources**, the Table I catalog;
- :mod:`repro.sim` — the full-system simulator substrate (the gem5
  substitute) with CPU/memory models, boot sequencing, and the fault model
  behind the Fig 8 boot tests;
- :mod:`repro.gpu` — the GCN3-class GPU model with the simple/dynamic
  register allocators of Fig 9;
- :mod:`repro.db`, :mod:`repro.scheduler`, :mod:`repro.vfs`,
  :mod:`repro.packer`, :mod:`repro.guest` — the MongoDB, Celery, disk
  image, Packer, and guest-software substrates;
- :mod:`repro.pipeline` — one-click reproduction DAGs: declarative
  manifests, content-addressed stage outputs, validation gates, and one
  journaled stage document per decision behind ``repro reproduce``;
- :mod:`repro.analysis` — query/series/chart helpers for regenerating the
  paper's tables and figures.

Quick start::

    from repro.art import (ArtifactDB, Gem5Run, register_gem5_binary,
                           register_kernel_binary, register_disk_image,
                           register_repo, run_job)
    from repro.resources import build_resource
    from repro.sim import Gem5Build
    from repro.guest import get_kernel

    db = ArtifactDB()
    repo = register_repo(db, "gem5")
    gem5 = register_gem5_binary(db, Gem5Build(), inputs=[repo])
    kernel = register_kernel_binary(db, get_kernel("4.15.18"))
    disk = register_disk_image(db, build_resource("parsec").image)
    run = Gem5Run.create_fs_run(db, gem5, repo, repo, kernel, disk,
                                benchmark="ferret")
    print(run_job(run)["workload_seconds"])
"""

__version__ = "1.0.0"

__all__ = [
    "art",
    "resources",
    "sim",
    "gpu",
    "db",
    "scheduler",
    "vfs",
    "packer",
    "guest",
    "pipeline",
    "analysis",
    "common",
]
