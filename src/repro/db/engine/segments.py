"""On-disk collection layout: one sealed segment plus the active WAL.

Each collection owns a directory::

    <engine root>/<collection>/
        segment.seg   # one insert per document live at the last
                      # compaction; strictly checksummed
        wal.log       # every operation since; a torn tail is tolerated

Both appear at the collection's first append: opening a collection
that has none reads nothing and creates nothing.  The logs hold
documents only; an index is schema, declared by the code that owns the
collection every time it opens it.

Recovery replays the segment, then the WAL.  Compaction *folds the WAL
into the segment*: replay both, write ``segment.seg.tmp``, fsync,
rename it over ``segment.seg``, fsync the directory, and only then
truncate the WAL.

**Replay is idempotent**, and that is the whole crash-safety argument.
Every record is absolute — ``insert``/``replace`` carry the whole
document, ``delete`` an id, and ``update`` the *effect* of an update:
the value each path a ``$set``/``$unset`` touched holds afterwards
(``set``) or that the path is gone (``unset``), never the operators, so
a ``$set`` of ``q`` then an ``$unset`` of ``q.a`` is logged as the one
value ``q`` ended with.
At any one path a record therefore either fixes what is there, whatever
was there before, or leaves it alone — and which of the two does not
depend on the state it is applied to (``set_path`` makes every step
above its path a dict, so even a path through a scalar lands the same
way).  The state after a log is then, path by path, what the last
record to fix that path says, and replaying a WAL over a segment that
already holds its effects changes nothing (an ``insert`` re-takes its
place at the end, so even document order is a fixed point; an
``update`` that finds its document already deleted by the same log is
waiting for that ``delete``, see :meth:`CollectionStore._replay`).  A
crash during compaction therefore leaves one of:

- a ``segment.seg.tmp`` beside the old segment and the full WAL — the
  tmp file is swept on open;
- the new segment *and* the full WAL (published, not yet truncated) —
  replay lands on the same state;
- the new segment and an empty WAL.

No sequence numbers, no manifest, nothing to adopt.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import chaos, telemetry
from repro.common.errors import ValidationError
from repro.db.engine.wal import (
    WalWriter,
    encode_record,
    fsync_dir,
    new_deflater,
    read_log,
)
from repro.db.query import set_path, unset_path

SEGMENT_NAME = "segment.seg"
WAL_NAME = "wal.log"

#: An append folds the WAL into the segment once the WAL is this large
#: *and* at least as large as the segment (so rewrites are amortised).
COMPACT_BYTES = 4 << 20


def _compactions_counter():
    return telemetry.get_metrics().counter(
        "db_compactions_total",
        "WAL-into-segment compactions published",
    )


def _reclaimed_counter():
    return telemetry.get_metrics().counter(
        "db_compaction_reclaimed_bytes_total",
        "Bytes of superseded log data dropped by compaction",
    )


def _truncated_counter():
    return telemetry.get_metrics().counter(
        "db_recovery_truncated_bytes_total",
        "Torn WAL tail bytes discarded during crash recovery",
    )


class CollectionStore:
    """Durable op log for one collection: sealed segment + active WAL."""

    def __init__(self, root: str, name: str, durability: str):
        if os.sep in name or name.startswith("."):
            raise ValidationError(f"invalid collection name: {name!r}")
        self.name = name
        self.dir = os.path.join(root, name)
        self.durability = durability
        self._segment_path = os.path.join(self.dir, SEGMENT_NAME)
        self._wal_path = os.path.join(self.dir, WAL_NAME)
        self._segment_bytes = 0
        self._tmp_path = self._segment_path + ".tmp"
        if os.path.exists(self._tmp_path):  # an aborted compaction
            os.remove(self._tmp_path)
        #: Opened by :meth:`_log` at the first append, once :meth:`load`
        #: has healed the tail it appends to.
        self._writer: Optional[WalWriter] = None

    # ------------------------------------------------------------ replay

    def load(self) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
        """Recover ``(documents, report)`` — the one read of this
        collection's files per open.

        A torn WAL tail (the signature of a crash mid-append) is
        truncated back to the last intact frame and reported.
        """
        state, report = self._replay(heal=True)
        if os.path.isfile(self._segment_path):
            self._segment_bytes = os.path.getsize(self._segment_path)
        return state, report

    def _replay(
        self, heal: bool
    ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
        """One streaming pass over the segment, then the WAL:
        ``(documents, report)``.  Damage in the segment raises; a torn
        WAL tail is truncated with ``heal`` and raises without.

        An ``update`` is only ever logged for a live document, so one
        whose id is not live is damage and raises — unless the same log
        goes on to ``delete`` that id: a WAL replayed over the segment
        it was folded into (published, not yet truncated) meets the
        updates of a document it later deleted with the document
        already gone.
        """
        state: Dict[str, Dict[str, Any]] = {}
        orphans: Set[str] = set()  # updated while not live
        replayed = 0

        def apply(record: Dict[str, Any]) -> None:
            nonlocal replayed
            replayed += 1
            op = record["op"]
            if op == "insert":
                # To the end even when the id is (still) there, so a
                # replay over its own effects reproduces their order.
                doc = record["doc"]
                state.pop(doc["_id"], None)
                state[doc["_id"]] = doc
            elif op == "replace":
                state[record["doc"]["_id"]] = record["doc"]
            elif op == "update":
                doc = state.get(record["id"])
                if doc is None:
                    orphans.add(record["id"])
                    return
                for path, value in record["set"].items():
                    set_path(doc, path, value)
                for path in record["unset"]:
                    unset_path(doc, path)
            elif op == "delete":
                state.pop(record["id"], None)
                orphans.discard(record["id"])
            else:
                raise ValidationError(f"unknown WAL op: {op!r}")

        if os.path.isfile(self._segment_path):
            read_log(self._segment_path, apply=apply)
        sealed = replayed
        torn, tear = 0, None
        if os.path.isfile(self._wal_path):
            _, good_offset, tear = read_log(self._wal_path, heal, apply)
            if tear is not None:
                torn = os.path.getsize(self._wal_path) - good_offset
                with open(self._wal_path, "r+b") as handle:
                    handle.truncate(good_offset)
                    handle.flush()
                    os.fsync(handle.fileno())
                _truncated_counter().inc(torn, collection=self.name)
        if orphans:
            raise ValidationError(
                f"{self.dir}: update of {sorted(orphans)}, "
                "which the log neither holds nor goes on to delete"
            )
        report = {
            "records_replayed": replayed,
            "wal_records": replayed - sealed,
            "truncated_bytes": torn,
            "tear": tear,
        }
        return state, report

    # ------------------------------------------------------------ logging

    def log_insert(self, doc: Dict[str, Any]) -> None:
        self._append({"op": "insert", "doc": doc})

    def log_replace(self, doc: Dict[str, Any]) -> None:
        self._append({"op": "replace", "doc": doc})

    def log_update(
        self, doc_id: str, assigned: Dict[str, Any], gone: List[str]
    ) -> None:
        """The effect of an update: ``assigned`` maps each path to the
        value it holds afterwards, ``gone`` lists the paths removed; no
        path of either lies below another."""
        self._append(
            {"op": "update", "id": doc_id, "set": assigned, "unset": gone}
        )

    def log_delete(self, doc_id: str) -> None:
        self._append({"op": "delete", "id": doc_id})

    def _log(self) -> WalWriter:
        """The WAL writer, opened — the directory and ``wal.log``
        created — when the collection first has something to log."""
        if self._writer is None:
            os.makedirs(self.dir, exist_ok=True)
            self._writer = WalWriter(
                self._wal_path, self.durability, self.name
            )
        return self._writer

    def _wal_bytes(self) -> int:
        if self._writer is not None:
            return self._writer.size()
        if os.path.isfile(self._wal_path):
            return os.path.getsize(self._wal_path)
        return 0

    def _append(self, record: Dict[str, Any]) -> None:
        self._log().append(record)
        # The record is logged: from here on the write is
        # acknowledged whatever the housekeeping below does.
        size = self._writer.size()
        if size < COMPACT_BYTES or size < self._segment_bytes:
            return
        try:
            self.compact()
        except Exception as error:
            telemetry.get_event_log().emit(
                "db.compact.error",
                collection=self.name,
                error=str(error),
            )

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    # ---------------------------------------------------------- compact

    def compact(self) -> Dict[str, Any]:
        """Fold the WAL into the segment, dropping dead records.

        The segment is durable under its final name *before* the WAL is
        truncated; a crash in between leaves both, and replaying both is
        a fixed point (see the module docstring).
        """
        wal_bytes = self._wal_bytes()
        if wal_bytes == 0:
            return {"merged": 0, "reclaimed_bytes": 0}
        self._log().flush()
        before = self._segment_bytes + wal_bytes
        state, report = self._replay(heal=False)
        deflater = new_deflater()  # the segment is one stream too
        with open(self._tmp_path, "wb") as handle:
            for doc in state.values():
                handle.write(
                    encode_record({"op": "insert", "doc": doc}, deflater)
                )
            handle.flush()
            os.fsync(handle.fileno())
        chaos.fire("compact.publish", collection=self.name)
        os.replace(self._tmp_path, self._segment_path)
        fsync_dir(self.dir)
        self._segment_bytes = os.path.getsize(self._segment_path)
        reclaimed = max(0, before - self._segment_bytes)
        chaos.fire("compact.truncate", collection=self.name)
        self._writer.truncate()
        _compactions_counter().inc(collection=self.name)
        _reclaimed_counter().inc(reclaimed, collection=self.name)
        return {
            "merged": report["wal_records"],
            "reclaimed_bytes": reclaimed,
        }

    # ------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        return {
            "segment_bytes": self._segment_bytes,
            "wal_bytes": self._wal_bytes(),
        }

    def close(self) -> None:
        if self._writer is not None:
            self._writer.flush()
            self._writer.close()
