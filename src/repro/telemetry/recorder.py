"""Archiving telemetry in the database — the reproducibility contract.

A run's trace must be explainable *from the database alone*, the same way
its statistics are: the recorder serializes a telemetry snapshot (spans,
metrics, events) to a JSON blob in the database's file store and indexes
it in a ``telemetry`` collection keyed by its owner (a run id or an
experiment id).  ``rehydrate`` reverses the trip with no live session.

The recorder is deliberately duck-typed over the database facade (anything
with ``upload_file`` / ``download_file`` and a ``database`` of collections,
i.e. :class:`repro.art.db.ArtifactDB`) so this package stays beside
``common`` in the layering — it never imports ``art`` or ``db``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import telemetry
from repro.common.errors import NotFoundError
from repro.common.ids import new_uuid
from repro.common.jsonutil import dumps, loads
from repro.common.timeutil import iso_now

#: Collection indexing archived telemetry blobs by owner document.
TELEMETRY = "telemetry"

#: Schema version stamped into every blob.
SNAPSHOT_VERSION = 1


def snapshot(
    spans: Optional[List[Dict[str, Any]]] = None,
    metrics: Optional[List[Dict[str, Any]]] = None,
    events: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Bundle already-exported telemetry into the archival form."""
    return {
        "version": SNAPSHOT_VERSION,
        "spans": list(spans or []),
        "metrics": list(metrics or []),
        "events": list(events or []),
    }


def archive_telemetry(
    db,
    owner_id: str,
    data: Dict[str, Any],
    kind: str = "run",
) -> str:
    """Store a snapshot as a blob + index document; returns the doc id.

    ``owner_id`` is the run or experiment the snapshot belongs to; the
    blob sits in the same file store as the run's ``stats.txt``.
    """
    blob_id = db.upload_file(
        dumps(data).encode("utf-8"),
        filename=f"telemetry-{owner_id}.json",
    )
    doc_id = new_uuid()
    db.database.collection(TELEMETRY).insert_one(
        {
            "_id": doc_id,
            "owner": owner_id,
            "kind": kind,
            "blob_id": blob_id,
            "spans": len(data.get("spans", [])),
            "events": len(data.get("events", [])),
            "created_at_wall": iso_now(),
        }
    )
    return doc_id


def rehydrate_telemetry(db, owner_id: str) -> Dict[str, Any]:
    """Load the (latest) archived snapshot for ``owner_id`` from the
    database alone.  Raises :class:`NotFoundError` when none exists."""
    docs = db.database.collection(TELEMETRY).find({"owner": owner_id})
    if not docs:
        raise NotFoundError(
            f"no telemetry archived for owner {owner_id!r}"
        )
    doc = sorted(docs, key=lambda d: d["created_at_wall"])[-1]
    data = loads(db.download_file(doc["blob_id"]).decode("utf-8"))
    data.setdefault("spans", [])
    data.setdefault("metrics", [])
    data.setdefault("events", [])
    return data


def merge_worker_telemetry(
    buffer: Optional[Dict[str, Any]],
    worker: Optional[str] = None,
) -> None:
    """Fold a worker process's telemetry buffer into the live session.

    ``buffer`` is the ``{"metrics": ..., "events": ...}`` dict a process
    pool worker records in its private session and ships back inside its
    result (processes share no registries with the parent, so merging on
    drain is the only way their observations reach the archived
    snapshot).  No-op when the buffer is empty or telemetry is disabled
    in the parent — the null twins absorb the calls.
    """
    if not buffer:
        return
    telemetry.get_metrics().merge(buffer.get("metrics") or [])
    extra = {} if worker is None else {"worker": worker}
    telemetry.get_event_log().absorb(buffer.get("events") or [], **extra)
