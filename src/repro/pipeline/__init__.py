"""One-click reproduction pipelines (``repro reproduce``).

The pipeline layer turns a paper reproduction into a declarative DAG:
a YAML/JSON **manifest** names the stages (register artifacts → boot
sweep → analyze → render), the **executor** walks them once in
deterministic topological order, every stage's outputs are
**content-addressed** into the FileStore, and the **journal** records
one stage document per stage — executed, cache hit or error, with its
gate verdicts — that ``repro pipeline explain`` prints.  A changed
upstream artifact invalidates exactly its dependents (the fingerprint
chain), an unchanged stage is a cache hit, and a failed **validation
gate** ends the pipeline ``failed``.  The stage implementations
(:mod:`repro.pipeline.stages`) load only when a stage executes.
"""

from repro.pipeline.manifest import (
    EXECUTION_DEFAULTS,
    KNOWN_STAGE_KINDS,
    MANIFEST_SCHEMA_VERSION,
    Manifest,
    StageSpec,
    load_manifest,
)
from repro.pipeline.gates import (
    GATE_KINDS,
    evaluate_gate,
    evaluate_gates,
    validate_gate_spec,
)
from repro.pipeline.journal import (
    PIPELINE_RUNS,
    PipelineJournal,
    StageCache,
    stage_fingerprint,
)
from repro.pipeline.executor import run_pipeline

__all__ = [
    "EXECUTION_DEFAULTS",
    "GATE_KINDS",
    "KNOWN_STAGE_KINDS",
    "MANIFEST_SCHEMA_VERSION",
    "Manifest",
    "PIPELINE_RUNS",
    "PipelineJournal",
    "StageCache",
    "StageSpec",
    "evaluate_gate",
    "evaluate_gates",
    "load_manifest",
    "run_pipeline",
    "stage_fingerprint",
    "validate_gate_spec",
]
