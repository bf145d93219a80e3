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
"""

from repro.art.db import ArtifactDB
from repro.art.artifact import (
    Artifact,
    register_gem5_binary,
    register_kernel_binary,
    register_disk_image,
    register_repo,
)
from repro.art.run import Gem5Run, InputResolver, RunStatus
from repro.art.spec import RunSpec
from repro.art.cache import RunCache
from repro.art.checkpoints import CheckpointStore
from repro.art.tasks import (
    group_runs_by_prefix,
    run_boot_stage,
    run_job,
    run_jobs_pool,
    run_jobs_scheduler,
)
from repro.art.workflow import workflow_graph
from repro.art.launch import Experiment
from repro.art.share import export_archive, import_archive, verify_archive

__all__ = [
    "ArtifactDB",
    "Artifact",
    "register_gem5_binary",
    "register_kernel_binary",
    "register_disk_image",
    "register_repo",
    "Gem5Run",
    "InputResolver",
    "RunStatus",
    "RunSpec",
    "RunCache",
    "CheckpointStore",
    "group_runs_by_prefix",
    "run_boot_stage",
    "run_job",
    "run_jobs_pool",
    "run_jobs_scheduler",
    "workflow_graph",
    "Experiment",
    "export_archive",
    "import_archive",
    "verify_archive",
]
