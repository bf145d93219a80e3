"""The pipeline executor — ``repro reproduce``'s engine.

Walks the manifest's stage DAG once, in deterministic topological
order, and for each stage:

1. computes the stage **fingerprint** (declaration + upstream outputs
   digests — see :func:`repro.pipeline.journal.stage_fingerprint`);
2. consults the :class:`~repro.pipeline.journal.StageCache` for that
   fingerprint and, on a hit, adopts the recorded outputs (verifying
   the content-addressed blob) instead of re-executing;
3. otherwise executes the stage implementation, content-addresses its
   outputs into the FileStore and evaluates the stage's validation
   gates (outputs that cannot be archived are the stage's error);
4. journals one stage document.  A stage that raises or fails a gate
   ends the pipeline ``failed``; one that executed and passed its gates
   is, by that document, its fingerprint's cache entry.

The stage documents, sorted by ``seq``, are the pipeline's decision
record.  Telemetry gets ``pipeline``/``pipeline.stage`` spans plus two
pipeline counters (hits are the stage cache's
``stagecache_hits_total``).  The ``pipeline.stage`` chaos point fires
before each execution so fault drills can kill a stage mid-pipeline and
assert the journaled outcome.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro import chaos, telemetry
from repro.art.db import ArtifactDB
from repro.pipeline.gates import evaluate_gates
from repro.pipeline.journal import (
    PipelineJournal,
    StageCache,
    stage_fingerprint,
)
from repro.pipeline.manifest import Manifest


def run_pipeline(
    db: ArtifactDB,
    manifest: Manifest,
    journal: Optional[PipelineJournal] = None,
    use_cache: Optional[bool] = None,
) -> Dict[str, Any]:
    """Execute a manifest end to end; returns the pipeline result.

    The result is a plain dict: ``status`` (``succeeded`` / ``failed``),
    ``pipeline_id``, ``stages`` (name → journaled stage document, in
    execution order, an errored stage included) and the action
    ``counts``.  A failed pipeline returns (rather than raises) so
    callers always get the journaled stages; the CLI maps the status to
    its exit code.

    ``use_cache`` overrides the manifest's ``execution.use_cache`` for
    the stage cache only (the CLI's ``--no-stage-cache``); the sweep's
    run cache follows the manifest.
    """
    journal = journal or PipelineJournal(db)
    stage_cache = StageCache(db)
    if use_cache is None:
        use_cache = manifest.execution["use_cache"]
    metrics = telemetry.get_metrics()
    runs_total = metrics.counter(
        "pipeline_stage_runs_total", "pipeline stages executed"
    )
    gate_failures_total = metrics.counter(
        "pipeline_stage_gate_failures_total", "pipeline gate failures"
    )

    order = manifest.execution_order()
    pipeline_id = journal.begin_pipeline(manifest)
    digests: Dict[str, str] = {}
    outputs_by_stage: Dict[str, Dict[str, Any]] = {}
    stages: Dict[str, Dict[str, Any]] = {}
    counts = {"executed": 0, "cache_hits": 0, "gate_failures": 0}
    status = "succeeded"
    error: Optional[str] = None

    with telemetry.get_tracer().span(
        "pipeline",
        attributes={
            "pipeline": manifest.name,
            "pipeline_id": pipeline_id,
            "stages": len(order),
        },
    ):
        for seq, name in enumerate(order):
            stage = manifest.stage(name)
            fingerprint = stage_fingerprint(
                stage, {source: digests[source] for source in stage.inputs}
            )
            with telemetry.get_tracer().span(
                "pipeline.stage",
                attributes={
                    "pipeline": manifest.name,
                    "stage": name,
                    "kind": stage.kind,
                },
            ) as span:
                cached = (
                    stage_cache.consult(fingerprint) if use_cache else None
                )
                if cached is not None:
                    action = "cache_hit"
                    outputs = cached["outputs"]
                    blob_id = cached["outputs_blob"]
                    verdicts = cached["verdicts"]
                    counts["cache_hits"] += 1
                else:
                    # Only an executing stage needs the stage bodies.
                    from repro.pipeline.stages import STAGE_KINDS, StageContext

                    try:
                        chaos.fire(
                            "pipeline.stage",
                            stage=name,
                            kind=stage.kind,
                        )
                        outputs = STAGE_KINDS[stage.kind](
                            StageContext(
                                db=db,
                                pipeline_id=pipeline_id,
                                pipeline_name=manifest.name,
                                stage=stage,
                                inputs={
                                    source: outputs_by_stage[source]
                                    for source in stage.inputs
                                },
                                execution=dict(manifest.execution),
                            )
                        )
                        blob_id = journal.store_outputs(outputs)
                    except Exception as exc:
                        action, blob_id, verdicts = "error", None, []
                        error = f"{type(exc).__name__}: {exc}"
                        span.set_attribute("error", type(exc).__name__)
                    else:
                        action = "executed"
                        counts["executed"] += 1
                        runs_total.inc(pipeline=manifest.name, stage=name)
                        verdicts = evaluate_gates(
                            stage.gates, outputs, stage=name
                        )
                gates_ok = action != "error" and all(
                    v["ok"] for v in verdicts
                )
                stages[name] = journal.record_stage(
                    pipeline_id,
                    manifest.name,
                    stage,
                    fingerprint=fingerprint,
                    seq=seq,
                    action=action,
                    outputs_blob=blob_id,
                    verdicts=verdicts,
                    gates_ok=gates_ok,
                    cache_source=cached["_id"] if cached else None,
                    error=error,
                )
                span.set_attribute("action", action)
                span.set_attribute("gates_ok", gates_ok)
                if gates_ok:
                    digests[name] = blob_id
                    outputs_by_stage[name] = outputs
                    continue
                status = "failed"
                if error is None:
                    counts["gate_failures"] += 1
                    gate_failures_total.inc(
                        pipeline=manifest.name, stage=name
                    )
                    detail = "; ".join(
                        v["detail"] for v in verdicts if not v["ok"]
                    )
                    error = f"stage {name!r} failed its gates: {detail}"
                break

    journal.finish_pipeline(pipeline_id, status, counts, error=error)
    return {
        "pipeline_id": pipeline_id,
        "pipeline": manifest.name,
        "status": status,
        "error": error,
        "order": order,
        "stages": stages,
        "counts": counts,
    }
