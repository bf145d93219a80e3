"""The pipeline journal — provenance for every stage decision.

Every pipeline run writes two kinds of documents into the
``pipeline_runs`` collection:

- one **pipeline** document per ``repro reproduce`` invocation: manifest
  fingerprint, status, and an ordered *decision trail* (stage executed /
  cache hit / gate failed / backtracked / finished) — the record
  ``repro pipeline explain`` replays;
- one **stage** document per stage attempt: the stage fingerprint, the
  attempt number, what happened (``executed`` / ``cache_hit`` /
  ``error``), gate verdicts, and the stage outputs — both inline (for
  queries) and content-addressed into the FileStore (the blob id *is*
  the SHA-256 of the canonical outputs JSON).

The stage documents double as the cross-run cache: a later pipeline run
that computes the same stage fingerprint adopts the recorded outputs
instead of re-executing, after reading the outputs blob back through the
memo protocol's :func:`~repro.art.cache.read_verified` — a missing blob
degrades to re-execution, a corrupt one is evicted first so that the
re-execution heals its content address.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.errors import NotFoundError
from repro.common.hashing import sha256_text
from repro.common.ids import new_uuid
from repro.common.jsonutil import canonical_dumps, loads
from repro.common.timeutil import iso_now
from repro.art.cache import read_verified
from repro.art.db import ArtifactDB
from repro.pipeline.manifest import (
    MANIFEST_SCHEMA_VERSION,
    Manifest,
    StageSpec,
)

PIPELINE_RUNS = "pipeline_runs"


def stage_fingerprint(
    stage: StageSpec,
    input_digests: Dict[str, str],
    attempt: int,
) -> str:
    """Content address of one stage attempt.

    Covers the stage's own declaration (kind, params, gates, wiring),
    the outputs digest of every upstream stage, and the attempt number.
    A changed upstream artifact therefore changes exactly its
    dependents' fingerprints — the invalidation cascade falls out of the
    hash chain — and a backtrack (bumped attempt) can never alias the
    attempt it is retrying.
    """
    return sha256_text(
        canonical_dumps(
            {
                "schema": MANIFEST_SCHEMA_VERSION,
                "stage": stage.canonical_document(),
                "inputs": dict(input_digests),
                "attempt": attempt,
            }
        )
    )


class PipelineJournal:
    """Reads and writes the ``pipeline_runs`` collection."""

    def __init__(self, db: ArtifactDB):
        self.db = db
        self.collection = db.database.collection(PIPELINE_RUNS)
        self.collection.create_index("doc_type")
        self.collection.create_index("fingerprint")
        self.collection.create_index("pipeline_id")

    # ------------------------------------------------------ pipeline docs

    def begin_pipeline(self, manifest: Manifest) -> str:
        pipeline_id = new_uuid()
        self.collection.insert_one(
            {
                "_id": pipeline_id,
                "doc_type": "pipeline",
                "pipeline": manifest.name,
                "manifest_fingerprint": manifest.fingerprint(),
                "manifest_path": manifest.source_path,
                "stage_order": manifest.execution_order(),
                "status": "running",
                "trail": [],
                "counts": {},
                "started_at_wall": iso_now(),
                "finished_at_wall": None,
            }
        )
        return pipeline_id

    def append_trail(self, pipeline_id: str, event: Dict[str, Any]) -> None:
        """Append one decision to the pipeline's ordered trail."""
        entry = dict(event)
        entry["at_wall"] = iso_now()
        self.collection.update_one(
            {"_id": pipeline_id}, {"$push": {"trail": entry}}
        )

    def finish_pipeline(
        self,
        pipeline_id: str,
        status: str,
        counts: Dict[str, int],
        error: Optional[str] = None,
    ) -> None:
        update: Dict[str, Any] = {
            "status": status,
            "counts": dict(counts),
            "finished_at_wall": iso_now(),
        }
        if error is not None:
            update["error"] = error
        self.collection.update_one(
            {"_id": pipeline_id}, {"$set": update}
        )

    def get_pipeline(self, pipeline_id: str) -> Dict[str, Any]:
        doc = self.collection.find_one(
            {"_id": pipeline_id, "doc_type": "pipeline"}
        )
        if doc is None:
            raise NotFoundError(f"no pipeline run with id {pipeline_id}")
        return doc

    def pipelines(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """All pipeline documents, oldest first."""
        query: Dict[str, Any] = {"doc_type": "pipeline"}
        if name is not None:
            query["pipeline"] = name
        return self.collection.find(
            query, sort=[("started_at_wall", 1), ("_id", 1)]
        )

    def latest_pipeline(
        self, name: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        docs = self.pipelines(name)
        return docs[-1] if docs else None

    # --------------------------------------------------------- stage docs

    def store_outputs(self, outputs: Dict[str, Any]) -> str:
        """Content-address a stage's outputs into the FileStore.

        The returned blob id is the SHA-256 digest of the canonical
        JSON, so equal outputs share one blob across stages and runs.
        """
        payload = canonical_dumps(outputs).encode("utf-8")
        return self.db.upload_file(payload, filename="stage-outputs.json")

    def record_stage(
        self,
        pipeline_id: str,
        pipeline_name: str,
        stage: StageSpec,
        fingerprint: str,
        attempt: int,
        seq: int,
        action: str,
        outputs: Optional[Dict[str, Any]],
        outputs_blob: Optional[str],
        verdicts: List[Dict[str, Any]],
        gates_ok: bool,
        cache_source: Optional[str] = None,
        error: Optional[str] = None,
    ) -> str:
        """Journal one stage attempt; returns the stage document id."""
        doc_id = new_uuid()
        self.collection.insert_one(
            {
                "_id": doc_id,
                "doc_type": "stage",
                "pipeline_id": pipeline_id,
                "pipeline": pipeline_name,
                "stage": stage.name,
                "kind": stage.kind,
                "seq": seq,
                "fingerprint": fingerprint,
                "attempt": attempt,
                "action": action,
                "outputs": outputs,
                "outputs_blob": outputs_blob,
                "verdicts": verdicts,
                "gates_ok": gates_ok,
                "cache_source": cache_source,
                "error": error,
                "recorded_at_wall": iso_now(),
            }
        )
        return doc_id

    def stages_of(self, pipeline_id: str) -> List[Dict[str, Any]]:
        """Stage documents of one pipeline run, in decision order."""
        return self.collection.find(
            {"doc_type": "stage", "pipeline_id": pipeline_id},
            sort=[("seq", 1)],
        )

    # ------------------------------------------------------------- cache

    def evict_stage_records(self, stage_names: List[str]) -> int:
        """Drop every journaled attempt of the named stages.

        ``repro pipeline rerun --stage X`` uses this to force X and its
        dependents to re-execute even when their fingerprints (hence
        cached outputs) are unchanged — the operator override for "I do
        not trust that result".  Returns the number of records dropped.
        """
        evicted = 0
        for name in stage_names:
            evicted += self.collection.delete_many(
                {"doc_type": "stage", "stage": name}
            )
        return evicted

    def find_cached(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """A reusable stage record for this fingerprint, or None.

        Only gate-passing, successfully executed (or previously adopted)
        records qualify — a failed attempt is never a cache hit.  The
        outputs blob is re-downloaded so the FileStore's content check
        vouches for it; a corrupt (now evicted) or missing blob
        disqualifies the record (re-execute) instead of propagating
        garbage downstream.
        """
        candidates = self.collection.find(
            {
                "doc_type": "stage",
                "fingerprint": fingerprint,
                "gates_ok": True,
            },
            sort=[("recorded_at_wall", 1), ("seq", 1)],
        )
        for doc in reversed(candidates):
            blob_id = doc.get("outputs_blob")
            if not blob_id:
                continue
            payload, _, _ = read_verified(self.db, blob_id)
            if payload is None:
                continue
            doc["outputs"] = loads(payload.decode("utf-8"))
            return doc
        return None
