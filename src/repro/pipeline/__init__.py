"""One-click reproduction pipelines (``repro reproduce``).

The pipeline layer turns a paper reproduction into a declarative DAG:
a YAML/JSON **manifest** names the stages (register artifacts → boot
sweep → analyze → render), the **executor** walks them in deterministic
topological order, every stage's outputs are **content-addressed** into
the FileStore, and the **journal** records a decision trail — executed,
cache hit, gate failed, backtracked — that ``repro pipeline explain``
replays.  A changed upstream artifact invalidates exactly its
dependents (the fingerprint chain), an unchanged stage is a cache hit,
and a failed **validation gate** can backtrack to a named earlier stage
with bumped attempt provenance, bounded by ``max_backtracks``.
"""

from repro.pipeline.manifest import (
    EXECUTION_DEFAULTS,
    KNOWN_STAGE_KINDS,
    MANIFEST_SCHEMA_VERSION,
    Manifest,
    OnFail,
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
from repro.pipeline.stages import STAGE_KINDS, StageContext
from repro.pipeline.executor import run_pipeline

__all__ = [
    "EXECUTION_DEFAULTS",
    "GATE_KINDS",
    "KNOWN_STAGE_KINDS",
    "MANIFEST_SCHEMA_VERSION",
    "Manifest",
    "OnFail",
    "PIPELINE_RUNS",
    "PipelineJournal",
    "STAGE_KINDS",
    "StageCache",
    "StageContext",
    "StageSpec",
    "evaluate_gate",
    "evaluate_gates",
    "load_manifest",
    "run_pipeline",
    "stage_fingerprint",
    "validate_gate_spec",
]
