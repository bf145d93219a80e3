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

The journal is append-only history.  The cross-run cache sits beside
it: :class:`StageCache`, the memo protocol's third client, indexes each
gate-passing executed attempt by its stage fingerprint, and a later
pipeline run that computes the same fingerprint adopts the recorded
outputs instead of re-executing (how a lookup degrades is the protocol's,
:meth:`~repro.art.cache.MemoStore.consult`).  Evicting a cached result
deletes a cache entry, never provenance.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.common.errors import NotFoundError
from repro.common.hashing import sha256_text
from repro.common.ids import new_uuid
from repro.common.jsonutil import canonical_dumps, loads
from repro.common.timeutil import iso_now
from repro.art.cache import Entry, MemoStore
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
    ) -> Dict[str, Any]:
        """Journal one stage attempt; returns the stage document."""
        document = {
            "_id": new_uuid(),
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
        self.collection.insert_one(document)
        return document

    def stages_of(self, pipeline_id: str) -> List[Dict[str, Any]]:
        """Stage documents of one pipeline run, in decision order."""
        return self.collection.find(
            {"doc_type": "stage", "pipeline_id": pipeline_id},
            sort=[("seq", 1)],
        )


class StageCache(MemoStore):
    """Stage fingerprint → the outputs of the attempt that passed its
    gates, over the documents :meth:`PipelineJournal.record_stage`
    writes."""

    noun = "stagecache"
    collection_name = "stage_cache"
    key_field = "fingerprint"
    origin_field = "origin"
    label_field = "kind"
    listing = (
        "STAGE CACHE",
        (("Fingerprint", "fingerprint", 12), ("Stage", "stage", None),
         ("Kind", "kind", None), ("Journaled", "origin", 8),
         ("Hits", "tally", None), ("Stored", "stored_at_wall", 19)),
    )

    def encode(self, fingerprint: str, stage_doc: Entry) -> Optional[Entry]:
        """A journaled attempt as a cache entry (gate-passing ones only:
        a failed attempt is never a cache hit)."""
        if not stage_doc["gates_ok"]:
            return None
        return {
            "_id": f"stage-{fingerprint}",
            "fingerprint": fingerprint,
            "stage": stage_doc["stage"],
            "kind": stage_doc["kind"],
            "verdicts": stage_doc["verdicts"],
            "outputs_blob": stage_doc["outputs_blob"],
            "origin": stage_doc["_id"],
            "stored_at_wall": iso_now(),
        }

    def blob_id(self, entry: Entry) -> str:
        return entry["outputs_blob"]

    def decode(self, entry: Entry, payload: bytes) -> Entry:
        return dict(entry, outputs=loads(payload.decode("utf-8")))

    def tokens(self, entry: Entry) -> Iterable[str]:
        """Its stage's name: invalidating a stage evicts its every
        cached attempt."""
        return [entry["stage"]]

    def tallies(self) -> Dict[str, int]:
        """Fingerprint → journaled attempts that adopted the entry
        (their documents say ``cache_source`` its origin)."""
        return self._adopted(
            self.db.database.collection(PIPELINE_RUNS).find(
                {"doc_type": "stage", "action": "cache_hit"}
            ),
            "cache_source",
        )
