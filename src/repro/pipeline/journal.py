"""The pipeline journal — provenance for every stage decision.

Every pipeline run writes two kinds of documents into the
``pipeline_runs`` collection, each once:

- one **pipeline** document per ``repro reproduce`` invocation: manifest
  fingerprint and stage order, inserted ``running`` (so a crashed run
  stays visible) and updated once with its status and counts;
- one **stage** document per stage, in execution order (``seq``): the
  stage fingerprint, what happened (``executed`` / ``cache_hit`` /
  ``error``), gate verdicts, and the stage outputs by their
  content-addressed ``outputs_blob`` (the blob id *is* the SHA-256 of
  the canonical outputs JSON).

The stage documents sorted by ``seq`` are the decision record ``repro
pipeline explain`` prints.  The journal is append-only history plus one
mark: a stage document taken out of cache service gets a
``cache_revoked`` field, and nothing is ever deleted.

The cross-run cache is an index on the same documents:
:class:`StageCache`, the memo protocol's third client, answers a stage
fingerprint with the earliest gate-passing execution of it that is not
revoked, so a later pipeline run that computes the same fingerprint
adopts the recorded outputs instead of re-executing (how a lookup
degrades is the protocol's, :meth:`~repro.art.cache.MemoStore.consult`).
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
    stage: StageSpec, input_digests: Dict[str, str]
) -> str:
    """Content address of one stage's work.

    Covers the stage's own declaration (kind, params, gates, wiring)
    and the outputs digest of every upstream stage.  A changed upstream
    artifact therefore changes exactly its dependents' fingerprints —
    the invalidation cascade falls out of the hash chain.
    """
    return sha256_text(
        canonical_dumps(
            {
                "schema": MANIFEST_SCHEMA_VERSION,
                "stage": stage.canonical_document(),
                "inputs": dict(input_digests),
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
                "counts": {},
                "started_at_wall": iso_now(),
                "finished_at_wall": None,
            }
        )
        return pipeline_id

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
        return self.db.upload_file(payload)

    def record_stage(
        self,
        pipeline_id: str,
        pipeline_name: str,
        stage: StageSpec,
        fingerprint: str,
        seq: int,
        action: str,
        outputs_blob: Optional[str],
        verdicts: List[Dict[str, Any]],
        gates_ok: bool,
        cache_source: Optional[str],
        error: Optional[str],
    ) -> Dict[str, Any]:
        """Journal one stage; returns the stage document."""
        document = {
            "_id": new_uuid(),
            "doc_type": "stage",
            "pipeline_id": pipeline_id,
            "pipeline": pipeline_name,
            "stage": stage.name,
            "kind": stage.kind,
            "seq": seq,
            "fingerprint": fingerprint,
            "action": action,
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
        """Stage documents of one pipeline run, in execution order."""
        return self.collection.find(
            {"doc_type": "stage", "pipeline_id": pipeline_id},
            sort=[("seq", 1)],
        )


class StageCache(MemoStore):
    """Stage fingerprint → its *producer*: the journaled stage document
    (:meth:`PipelineJournal.record_stage`) that executed it and passed
    its gates, first recorded; a hit hands back its outputs.  A failed
    stage is never a cache hit."""

    noun = "stagecache"
    collection_name = PIPELINE_RUNS
    key_field = "fingerprint"
    origin_field = "_id"
    label_field = "kind"
    listing = (
        "STAGE CACHE",
        (("Fingerprint", "fingerprint", 12), ("Stage", "stage", None),
         ("Kind", "kind", None), ("Journaled", "_id", 8),
         ("Hits", "tally", None), ("Stored", "recorded_at_wall", 19)),
    )
    _PRODUCER = {"action": "executed", "gates_ok": True}
    _STAMP = "recorded_at_wall"
    _FIELDS = ("fingerprint", "stage", "kind", "verdicts", "outputs_blob",
               "recorded_at_wall")

    def __init__(self, db: ArtifactDB):
        super().__init__(db)
        # Its lookups, and only its (non-unique: every execution of a
        # fingerprint is journaled).
        self.collection.create_index("fingerprint")

    def _names(self, entry: Entry) -> Entry:
        return {"fingerprint": entry["fingerprint"], "origin": entry["_id"]}

    def blob_id(self, entry: Entry) -> str:
        return entry["outputs_blob"]

    def decode(self, entry: Entry, payload: bytes) -> Entry:
        return dict(entry, outputs=loads(payload.decode("utf-8")))

    def tokens(self, entry: Entry) -> Iterable[str]:
        """Its stage's name: invalidating a stage evicts its every
        cached fingerprint."""
        return [entry["stage"]]

    def tallies(self) -> Dict[str, int]:
        """Fingerprint → journaled stages that adopted the entry
        (their documents say ``cache_source`` its producer)."""
        return self._adopted(
            self.collection.find(
                {"doc_type": "stage", "action": "cache_hit"},
                fields=["cache_source"],
            ),
            "cache_source",
        )
