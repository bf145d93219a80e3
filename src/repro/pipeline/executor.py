"""The pipeline executor — ``repro reproduce``'s engine.

Walks the manifest's stage DAG in deterministic topological order and,
for each stage:

1. computes the stage **fingerprint** (declaration + upstream outputs
   digests + attempt — see :func:`repro.pipeline.journal.stage_fingerprint`);
2. consults the :class:`~repro.pipeline.journal.StageCache` for that
   fingerprint and, on a hit, adopts the recorded outputs (verifying
   the content-addressed blob) instead of re-executing;
3. otherwise executes the stage implementation and content-addresses
   its outputs into the FileStore;
4. evaluates the stage's validation gates (an executed attempt that
   passes becomes the fingerprint's cache entry);
5. on a gate failure with an ``on_fail`` policy, **backtracks**: the
   attempt number of both the backtrack target and the failing stage is
   bumped (new fingerprints — the retry can never alias the failed
   attempt, and a deduplicated re-registration cannot replay the same
   failing outputs as a cache hit), and execution jumps back to the
   target.  Unchanged stages in between re-verify as cache hits.
   Backtracking is bounded by ``max_backtracks``; exhausting it fails
   the pipeline.

Every decision lands in the journal's ordered trail, every stage attempt
becomes a stage document, and telemetry gets ``pipeline``/
``pipeline.stage`` spans plus three pipeline counters (hits are the
stage cache's ``stagecache_hits_total``).  The ``pipeline.stage`` chaos
point fires before each execution so fault drills can kill a stage
mid-pipeline and assert the journaled outcome.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import chaos, telemetry
from repro.common.errors import FaultInjectedError, PipelineError
from repro.art.db import ArtifactDB
from repro.pipeline.gates import evaluate_gates
from repro.pipeline.journal import (
    PipelineJournal,
    StageCache,
    stage_fingerprint,
)
from repro.pipeline.manifest import Manifest
from repro.pipeline.stages import STAGE_KINDS, StageContext


def run_pipeline(
    db: ArtifactDB,
    manifest: Manifest,
    journal: Optional[PipelineJournal] = None,
    use_cache: Optional[bool] = None,
) -> Dict[str, Any]:
    """Execute a manifest end to end; returns the pipeline result.

    The result is a plain dict: ``status`` (``succeeded`` / ``failed``),
    ``pipeline_id``, per-stage summaries, the decision ``trail``, and
    the action ``counts``.  A failed pipeline returns (rather than
    raises) so callers always get the journaled trail; the CLI maps the
    status to its exit code.

    ``use_cache`` overrides the manifest's ``execution.use_cache`` (the
    CLI's ``--no-stage-cache``).
    """
    journal = journal or PipelineJournal(db)
    stage_cache = StageCache(db)
    execution = dict(manifest.execution)
    if use_cache is not None:
        execution["use_cache"] = use_cache
    cache_enabled = bool(execution["use_cache"])
    metrics = telemetry.get_metrics()
    runs_total = metrics.counter(
        "pipeline_stage_runs_total", "pipeline stages executed"
    )
    gate_failures_total = metrics.counter(
        "pipeline_stage_gate_failures_total", "pipeline gate failures"
    )
    backtracks_total = metrics.counter(
        "pipeline_stage_backtracks_total", "pipeline backtracks taken"
    )

    order = manifest.execution_order()
    pipeline_id = journal.begin_pipeline(manifest)
    attempts = {name: 1 for name in order}
    backtracks_used = {name: 0 for name in order}
    digests: Dict[str, str] = {}
    stage_summaries: Dict[str, Dict[str, Any]] = {}
    outputs_by_stage: Dict[str, Dict[str, Any]] = {}
    counts = {
        "executed": 0,
        "cache_hits": 0,
        "gate_failures": 0,
        "backtracks": 0,
    }
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
        index = 0
        while index < len(order):
            name = order[index]
            stage = manifest.stage(name)
            attempt = attempts[name]
            fingerprint = stage_fingerprint(
                stage,
                {source: digests[source] for source in stage.inputs},
                attempt,
            )
            with telemetry.get_tracer().span(
                "pipeline.stage",
                attributes={
                    "pipeline": manifest.name,
                    "stage": name,
                    "kind": stage.kind,
                    "attempt": attempt,
                },
            ) as span:
                action = "executed"
                cache_source = None
                cached = (
                    stage_cache.consult(fingerprint)
                    if cache_enabled
                    else None
                )
                if cached is not None:
                    action = "cache_hit"
                    cache_source = cached["origin"]
                    outputs = cached["outputs"]
                    blob_id = cached["outputs_blob"]
                    verdicts = cached["verdicts"]
                    counts["cache_hits"] += 1
                else:
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
                                attempt=attempt,
                                inputs={
                                    source: outputs_by_stage[source]
                                    for source in stage.inputs
                                },
                                execution=execution,
                            )
                        )
                    except (FaultInjectedError, PipelineError) as exc:
                        _record_stage_error(
                            journal, pipeline_id, manifest, stage,
                            fingerprint, attempt, counts, str(exc),
                        )
                        status, error = "failed", str(exc)
                        span.set_attribute("error", type(exc).__name__)
                        break
                    except Exception as exc:
                        detail = f"{type(exc).__name__}: {exc}"
                        _record_stage_error(
                            journal, pipeline_id, manifest, stage,
                            fingerprint, attempt, counts, detail,
                        )
                        status, error = "failed", detail
                        span.set_attribute("error", type(exc).__name__)
                        break
                    counts["executed"] += 1
                    runs_total.inc(pipeline=manifest.name, stage=name)
                    blob_id = journal.store_outputs(outputs)
                    verdicts = evaluate_gates(
                        stage.gates, outputs, stage=name, attempt=attempt
                    )
                gates_ok = all(v["ok"] for v in verdicts)
                seq = _next_seq(counts)
                journaled = journal.record_stage(
                    pipeline_id,
                    manifest.name,
                    stage,
                    fingerprint=fingerprint,
                    attempt=attempt,
                    seq=seq,
                    action=action,
                    outputs=outputs,
                    outputs_blob=blob_id,
                    verdicts=verdicts,
                    gates_ok=gates_ok,
                    cache_source=cache_source,
                )
                if cached is None:
                    stage_cache.store(fingerprint, journaled)
                journal.append_trail(
                    pipeline_id,
                    {
                        "event": "stage",
                        "stage": name,
                        "kind": stage.kind,
                        "attempt": attempt,
                        "action": action,
                        "fingerprint": fingerprint,
                        "gates_ok": gates_ok,
                    },
                )
                span.set_attribute("action", action)
                span.set_attribute("gates_ok", gates_ok)
                stage_summaries[name] = {
                    "action": action,
                    "attempt": attempt,
                    "fingerprint": fingerprint,
                    "outputs_digest": blob_id,
                    "gates_ok": gates_ok,
                }
                if gates_ok:
                    digests[name] = blob_id
                    outputs_by_stage[name] = outputs
                    index += 1
                    continue
                counts["gate_failures"] += 1
                gate_failures_total.inc(
                    pipeline=manifest.name, stage=name
                )
                failed = [v for v in verdicts if not v["ok"]]
                if (
                    stage.on_fail is not None
                    and backtracks_used[name]
                    < stage.on_fail.max_backtracks
                ):
                    target = stage.on_fail.backtrack
                    backtracks_used[name] += 1
                    counts["backtracks"] += 1
                    backtracks_total.inc(
                        pipeline=manifest.name, stage=name
                    )
                    # Bump BOTH ends of the retry: the target (so it
                    # really re-runs instead of cache-hitting its own
                    # failed lineage) and the failing stage (so content
                    # dedup upstream cannot hand it back the exact
                    # outputs its gates just rejected).
                    attempts[target] += 1
                    if target != name:
                        attempts[name] += 1
                    journal.append_trail(
                        pipeline_id,
                        {
                            "event": "backtrack",
                            "from_stage": name,
                            "to_stage": target,
                            "target_attempt": attempts[target],
                            "retry_attempt": attempts[name],
                            "backtracks_used": backtracks_used[name],
                            "max_backtracks":
                                stage.on_fail.max_backtracks,
                            "failed_gates": [
                                v["detail"] for v in failed
                            ],
                        },
                    )
                    index = order.index(target)
                    continue
                detail = "; ".join(v["detail"] for v in failed)
                journal.append_trail(
                    pipeline_id,
                    {
                        "event": "gate_failed_final",
                        "stage": name,
                        "attempt": attempt,
                        "backtracks_used": backtracks_used[name],
                        "failed_gates": [v["detail"] for v in failed],
                    },
                )
                status = "failed"
                error = f"stage {name!r} failed its gates: {detail}"
                break

    journal.append_trail(
        pipeline_id,
        {"event": "finished", "status": status, "counts": dict(counts)},
    )
    journal.finish_pipeline(pipeline_id, status, counts, error=error)
    return {
        "pipeline_id": pipeline_id,
        "pipeline": manifest.name,
        "status": status,
        "error": error,
        "order": order,
        "stages": stage_summaries,
        "counts": counts,
        "trail": journal.get_pipeline(pipeline_id)["trail"],
    }


#: Monotonic per-process stage sequence key: decisions of one pipeline
#: run are totally ordered by (executed + cache hits + errors) so far.
def _next_seq(counts: Dict[str, int]) -> int:
    return (
        counts["executed"]
        + counts["cache_hits"]
        + counts.get("errors", 0)
    )


def _record_stage_error(
    journal: PipelineJournal,
    pipeline_id: str,
    manifest: Manifest,
    stage,
    fingerprint: str,
    attempt: int,
    counts: Dict[str, int],
    detail: str,
) -> None:
    """Journal a stage that crashed (rather than failed its gates)."""
    counts["errors"] = counts.get("errors", 0) + 1
    journal.record_stage(
        pipeline_id,
        manifest.name,
        stage,
        fingerprint=fingerprint,
        attempt=attempt,
        seq=_next_seq(counts),
        action="error",
        outputs=None,
        outputs_blob=None,
        verdicts=[],
        gates_ok=False,
        error=detail,
    )
    journal.append_trail(
        pipeline_id,
        {
            "event": "stage_error",
            "stage": stage.name,
            "attempt": attempt,
            "error": detail,
        },
    )
