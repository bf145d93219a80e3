"""Segmented on-disk collection layout: sealed segments + active WAL.

Each collection owns a directory::

    <engine root>/<collection>/
        MANIFEST.json        # ordered list of sealed segments (atomic)
        segment-00000001.seg # immutable, checksummed op log (sealed WAL)
        segment-00000004.seg
        wal.log              # active WAL receiving new operations

A *segment* is simply a WAL that was sealed: when the active log grows
past ``seal_bytes`` it is fsynced and renamed (O(1), atomic) into the
segment namespace, the manifest is republished, and a fresh WAL starts.
Recovery replays the manifest's segments in order (strictly checksummed)
and then the active WAL (tolerating, and truncating, a torn tail).

Compaction merges the *sealed* segments only — the active WAL keeps
accepting writes concurrently — into one segment holding a single
``insert`` per live document, dropping tombstones and superseded
versions, and publishes the swap through an atomic manifest rename.

Crash windows are closed structurally:

- crash between seal-rename and manifest publish leaves an orphan
  ``segment-<next_seq>`` file; the next open adopts exactly that
  sequence number back into the manifest (nothing else is ever adopted);
- compaction output lives in its own ``compact-<seq>.seg`` namespace,
  which orphan adoption never touches: a crash anywhere mid-compaction
  leaves either a ``*.tmp`` file or an unreferenced ``compact-*.seg``
  (both swept on open) plus stale pre-compaction segments still listed
  in the manifest — the old manifest stays authoritative until the
  final manifest rename publishes the swap.

The namespace split matters: a merge snapshot reflects state as of
merge *start*, so re-adopting one onto the end of the manifest would
replay it after any segment sealed during the merge, resurrecting
deleted documents and reverting updates.  Only a sealed WAL — always
the newest ops — may ever be adopted.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro import chaos, telemetry
from repro.common.errors import ValidationError
from repro.common.jsonutil import loads, stable_dumps
from repro.db.engine.wal import (
    WalWriter,
    encode_record,
    fsync_dir,
    read_log,
)

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.seg$")
_COMPACT_RE = re.compile(r"^compact-(\d{8})\.seg$")

#: Auto-seal threshold for the active WAL, in bytes.
SEAL_BYTES = 1 << 20


def _segment_name(seq: int) -> str:
    return f"segment-{seq:08d}.seg"


def _compact_name(seq: int) -> str:
    """Compaction output name — deliberately NOT ``segment-*``.

    Orphan adoption recognises only ``segment-<next_seq>``, so a
    compacted snapshot stranded between its rename and the manifest
    publish is swept as unreferenced instead of being adopted behind
    segments that hold newer operations.
    """
    return f"compact-{seq:08d}.seg"


def _sealed_counter():
    return telemetry.get_metrics().counter(
        "db_segments_sealed_total",
        "Active WALs sealed into immutable segments",
    )


def _compactions_counter():
    return telemetry.get_metrics().counter(
        "db_compactions_total",
        "Segment-merge compactions published",
    )


def _reclaimed_counter():
    return telemetry.get_metrics().counter(
        "db_compaction_reclaimed_bytes_total",
        "Bytes of superseded segment data dropped by compaction",
    )


def _truncated_counter():
    return telemetry.get_metrics().counter(
        "db_recovery_truncated_bytes_total",
        "Torn WAL tail bytes discarded during crash recovery",
    )


class CollectionStore:
    """Durable op log for one collection: WAL + segments + manifest."""

    def __init__(self, root: str, name: str, durability: str):
        if os.sep in name or name.startswith("."):
            raise ValidationError(f"invalid collection name: {name!r}")
        self.name = name
        self.dir = os.path.join(root, name)
        self.durability = durability
        self.seal_bytes = SEAL_BYTES
        self._lock = threading.RLock()
        #: Serializes whole compactions (CLI + background thread) so two
        #: merges never race over the same tmp file or input segments.
        self._compact_lock = threading.Lock()
        os.makedirs(self.dir, exist_ok=True)
        self._sweep_tmp()
        self._manifest = self._read_or_init_manifest()
        self._adopt_orphan_segment()
        self._sweep_unreferenced_segments()
        self.recovery: Dict[str, Any] = self._heal_wal_tail()
        self._writer = WalWriter(self._wal_path(), durability, name)

    # ------------------------------------------------------------- paths

    def _wal_path(self) -> str:
        return os.path.join(self.dir, WAL_NAME)

    def _manifest_path(self) -> str:
        return os.path.join(self.dir, MANIFEST_NAME)

    def _segment_path(self, segment: str) -> str:
        return os.path.join(self.dir, segment)

    # ---------------------------------------------------------- manifest

    def _read_or_init_manifest(self) -> Dict[str, Any]:
        path = self._manifest_path()
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as handle:
                return loads(handle.read())
        manifest = {"segments": [], "next_seq": 1}
        self._write_manifest(manifest)
        return manifest

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        path = self._manifest_path()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(stable_dumps(manifest))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_dir(self.dir)

    # ----------------------------------------------------- open-time heal

    def _sweep_tmp(self) -> None:
        for entry in os.listdir(self.dir):
            if entry.endswith(".tmp"):
                os.remove(os.path.join(self.dir, entry))

    def _adopt_orphan_segment(self) -> None:
        """Re-adopt a segment stranded between seal-rename and publish.

        Only the exact ``segment-<next_seq>`` file can be such an
        orphan: seal renames the WAL to that name *before* republishing
        the manifest, so a crash in between leaves precisely that file.
        Compaction output is named ``compact-*`` and thus can never be
        adopted here — a snapshot of merge-*start* state appended after
        newer sealed segments would resurrect deletes.  Anything else
        unlisted is crash debris and is swept.
        """
        orphan = _segment_name(self._manifest["next_seq"])
        if orphan in self._manifest["segments"]:
            return
        if os.path.isfile(self._segment_path(orphan)):
            self._manifest["segments"].append(orphan)
            self._manifest["next_seq"] += 1
            self._write_manifest(self._manifest)

    def _sweep_unreferenced_segments(self) -> None:
        listed = set(self._manifest["segments"])
        for entry in os.listdir(self.dir):
            recognised = _SEGMENT_RE.match(entry) or _COMPACT_RE.match(
                entry
            )
            if recognised and entry not in listed:
                os.remove(os.path.join(self.dir, entry))

    def _heal_wal_tail(self) -> Dict[str, Any]:
        """Truncate a torn tail off the active WAL before reopening it."""
        path = self._wal_path()
        report = {"wal_records": 0, "truncated_bytes": 0, "tear": None}
        if not os.path.isfile(path):
            return report
        records, good_offset, tear = read_log(
            path, tolerate_torn_tail=True
        )
        report["wal_records"] = len(records)
        if tear is not None:
            torn = os.path.getsize(path) - good_offset
            report["truncated_bytes"] = torn
            report["tear"] = tear
            with open(path, "r+b") as handle:
                handle.truncate(good_offset)
                handle.flush()
                os.fsync(handle.fileno())
            _truncated_counter().inc(torn, collection=self.name)
        return report

    # ------------------------------------------------------------ logging

    def log_insert(self, doc: Dict[str, Any]) -> None:
        self._append({"op": "insert", "doc": doc})

    def log_replace(self, doc: Dict[str, Any]) -> None:
        self._append({"op": "replace", "doc": doc})

    def log_delete(self, doc_id: str) -> None:
        self._append({"op": "delete", "id": doc_id})

    def log_index(self, field: str, unique: bool) -> None:
        self._append({"op": "index", "field": field, "unique": unique})

    def _append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._writer.append(record)
            if self._writer.size() >= self.seal_bytes:
                self.seal()

    def flush(self) -> None:
        # Under the lock: ``seal()`` swaps ``self._writer`` for a fresh
        # WAL, and flushing the stale writer would silently lose the
        # durability point.
        with self._lock:
            self._writer.flush()

    # -------------------------------------------------------------- seal

    def seal(self) -> Optional[str]:
        """Freeze the active WAL into an immutable segment.

        O(1): the WAL file *becomes* the segment via atomic rename; a
        fresh WAL starts in its place.  Returns the new segment name,
        or None when the WAL had nothing to seal.
        """
        with self._lock:
            if self._writer.size() == 0:
                return None
            segment = _segment_name(self._manifest["next_seq"])
            self._writer.flush()
            chaos.fire(
                "segment.seal", collection=self.name, segment=segment
            )
            self._writer.close()
            os.replace(self._wal_path(), self._segment_path(segment))
            fsync_dir(self.dir)
            self._manifest["segments"].append(segment)
            self._manifest["next_seq"] += 1
            self._write_manifest(self._manifest)
            self._writer = WalWriter(
                self._wal_path(), self.durability, self.name
            )
        _sealed_counter().inc(collection=self.name)
        return segment

    # ------------------------------------------------------------ replay

    def load(self) -> Tuple[
        Dict[str, Dict[str, Any]], List[Tuple[str, bool]], Dict[str, Any]
    ]:
        """Replay segments + WAL into ``(documents, indexes, report)``.

        Sealed segments are checksummed strictly (damage raises); the
        WAL tail was already healed at open.  ``indexes`` lists
        ``(field, unique)`` definitions in creation order.
        """
        state: Dict[str, Dict[str, Any]] = {}
        indexes: Dict[str, bool] = {}
        replayed = 0
        with self._lock:
            segments = list(self._manifest["segments"])
            self._writer.flush()
            for segment in segments:
                records, _, _ = read_log(self._segment_path(segment))
                for record in records:
                    self._apply(state, indexes, record)
                replayed += len(records)
            wal_records, _, _ = read_log(
                self._wal_path(), tolerate_torn_tail=True
            )
            for record in wal_records:
                self._apply(state, indexes, record)
            replayed += len(wal_records)
        report = dict(self.recovery)
        report["records_replayed"] = replayed
        report["segments"] = len(segments)
        return state, list(indexes.items()), report

    @staticmethod
    def _apply(
        state: Dict[str, Dict[str, Any]],
        indexes: Dict[str, bool],
        record: Dict[str, Any],
    ) -> None:
        op = record["op"]
        if op in ("insert", "replace"):
            doc = record["doc"]
            state[doc["_id"]] = doc
        elif op == "delete":
            state.pop(record["id"], None)
        elif op == "index":
            indexes[record["field"]] = bool(record["unique"])
        else:
            raise ValidationError(f"unknown WAL op: {op!r}")

    # ---------------------------------------------------------- compact

    def compact(self) -> Dict[str, Any]:
        """Merge every sealed segment into one, dropping dead records.

        Runs concurrently with appends: only sealed (immutable) segments
        are read, and the swap is a single manifest rename.  A segment
        sealed *during* the merge survives the swap untouched — the
        compacted segment replaces exactly the inputs it merged.
        """
        with self._compact_lock:
            return self._compact()

    def _compact(self) -> Dict[str, Any]:
        with self._lock:
            merged = list(self._manifest["segments"])
        if len(merged) < 2:
            return {"merged": 0, "reclaimed_bytes": 0, "segment": None}
        state: Dict[str, Dict[str, Any]] = {}
        indexes: Dict[str, bool] = {}
        input_bytes = 0
        for segment in merged:
            path = self._segment_path(segment)
            input_bytes += os.path.getsize(path)
            records, _, _ = read_log(path)
            for record in records:
                self._apply(state, indexes, record)
        tmp = os.path.join(self.dir, "compact.seg.tmp")
        with open(tmp, "wb") as handle:
            for field, unique in indexes.items():
                handle.write(
                    encode_record(
                        {"op": "index", "field": field, "unique": unique}
                    )
                )
            for doc_id in sorted(state):
                handle.write(
                    encode_record({"op": "insert", "doc": state[doc_id]})
                )
            handle.flush()
            os.fsync(handle.fileno())
        with self._lock:
            segment = _compact_name(self._manifest["next_seq"])
            chaos.fire(
                "compact.publish", collection=self.name, segment=segment
            )
            os.replace(tmp, self._segment_path(segment))
            fsync_dir(self.dir)
            # Second crash window: output renamed into place but the
            # manifest not yet republished.  The compact-* namespace
            # keeps the stranded file non-adoptable; the next open
            # sweeps it while the old manifest stays authoritative.
            chaos.fire(
                "compact.manifest", collection=self.name, segment=segment
            )
            survivors = [
                s for s in self._manifest["segments"] if s not in merged
            ]
            self._manifest["segments"] = [segment] + survivors
            self._manifest["next_seq"] += 1
            self._write_manifest(self._manifest)
        for old in merged:
            os.remove(self._segment_path(old))
        output_bytes = os.path.getsize(self._segment_path(segment))
        reclaimed = max(0, input_bytes - output_bytes)
        _compactions_counter().inc(collection=self.name)
        _reclaimed_counter().inc(reclaimed, collection=self.name)
        return {
            "merged": len(merged),
            "reclaimed_bytes": reclaimed,
            "segment": segment,
        }

    # ------------------------------------------------------------- stats

    def segment_count(self) -> int:
        with self._lock:
            return len(self._manifest["segments"])

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            segments = list(self._manifest["segments"])
            wal_bytes = self._writer.size()
        segment_bytes = sum(
            os.path.getsize(self._segment_path(s))
            for s in segments
            if os.path.isfile(self._segment_path(s))
        )
        return {
            "segments": len(segments),
            "segment_bytes": segment_bytes,
            "wal_bytes": wal_bytes,
            "durability": self.durability,
        }

    def close(self) -> None:
        with self._lock:
            self._writer.flush()
            self._writer.close()
