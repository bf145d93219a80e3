"""GEM5ART — the paper's primary contribution.

The gem5 Artifact, Reproducibility and Testing framework: three interrelated
packages (Section IV of the paper) that make full-system experiments
reproducible by construction:

- :mod:`repro.art.artifact` — register every input and output of an
  experiment as a content-hashed, UUID-identified, de-duplicated document
  in the database (the paper's Fig 3);
- :mod:`repro.art.run` — run objects: special artifacts that reference all
  the input artifacts plus the parameters of one simulation (the paper's
  Fig 4 ``createFSRun``), execute it, and archive the results;
- :mod:`repro.art.tasks` — hand run objects to a job scheduler and collect
  states (Fig 5's ``apply_async`` loop): one planner, two substrates;
- :mod:`repro.art.workflow` — the Fig 1 component graph, derived from
  artifact input edges.

Method aliases match the paper's camelCase spelling (``registerArtifact``,
``createFSRun``) so launch scripts read like the figures.

Importing the package (or :mod:`~repro.art.db`, :mod:`~repro.art.cache`)
loads no simulator: every name below resolves on first use from the
submodule ``_LAZY`` names, so a command that only reads the database —
a ``repro reproduce`` whose stages are all cached — never imports
``repro.sim``, ``repro.gpu`` or the process pool.
"""

import importlib

#: Lazily imported name -> the submodule defining it.
_LAZY = {
    "ArtifactDB": "db",
    "Artifact": "artifact",
    "register_gem5_binary": "artifact",
    "register_kernel_binary": "artifact",
    "register_disk_image": "artifact",
    "register_repo": "artifact",
    "Gem5Run": "run",
    "InputResolver": "run",
    "RunStatus": "run",
    "RunSpec": "spec",
    "RunCache": "cache",
    "CheckpointStore": "checkpoints",
    "group_runs_by_prefix": "tasks",
    "run_boot_stage": "tasks",
    "run_job": "tasks",
    "run_jobs_pool": "tasks",
    "run_jobs_scheduler": "tasks",
    "workflow_graph": "workflow",
    "Experiment": "launch",
    "export_archive": "share",
    "import_archive": "share",
    "verify_archive": "share",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        # Cached: the next lookup is a plain module attribute.
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
