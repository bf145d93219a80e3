"""A named set of collections backed by the embedded storage engine.

Mirrors the role MongoDB plays for gem5art: a durable home for artifact and
run documents.  A database can live purely in memory (tests) or be bound to
a directory, where each collection persists through the
:mod:`repro.db.engine` write-ahead log + sealed segments and blobs live
under ``files/`` via the :class:`~repro.db.filestore.FileStore`::

    <root>/
        engine/<collection>/   # WAL + segments + manifest per collection
        files/<xx>/<digest>    # sharded content-addressed blobs

Every acknowledged write is WAL-logged immediately; ``save()`` is only
an fsync barrier and reopening a database is crash recovery: segments
replay strictly checksummed, the WAL tail is healed, and whatever a
``durability=strict`` writer acknowledged is guaranteed back.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional

from repro.common.errors import ValidationError
from repro.db.collection import Collection
from repro.db.engine import DURABILITY_MODES, StorageEngine
from repro.db.filestore import FileStore

_ENGINE_DIR = "engine"


class Database:
    """A collection container, optionally bound to an on-disk directory."""

    def __init__(
        self,
        name: str = "repro",
        root: Optional[str] = None,
        durability: str = "batch",
    ):
        if not name:
            raise ValidationError("database name must be non-empty")
        if durability not in DURABILITY_MODES:
            raise ValidationError(
                f"unknown durability {durability!r}; "
                f"one of {DURABILITY_MODES}"
            )
        self.name = name
        self.root = root
        self.durability = durability
        self._collections: Dict[str, Collection] = {}
        self._lock = threading.RLock()
        self._files: Optional[FileStore] = None
        self._engine: Optional[StorageEngine] = None
        self._recovery: Dict[str, Dict[str, Any]] = {}
        if root is not None:
            os.makedirs(root, exist_ok=True)
            self._files = FileStore(os.path.join(root, "files"))
            self._engine = StorageEngine(
                os.path.join(root, _ENGINE_DIR), durability
            )
            self._recover()

    # ---------------------------------------------------------- collections

    def collection(self, name: str) -> Collection:
        """Return (creating on first use) the named collection."""
        with self._lock:
            if name not in self._collections:
                store = (
                    self._engine.store(name)
                    if self._engine is not None
                    else None
                )
                self._collections[name] = Collection(name, store=store)
            return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    # ---------------------------------------------------------------- files

    @property
    def files(self) -> FileStore:
        """The blob store (GridFS stand-in); memory databases get a
        temporary in-memory store."""
        if self._files is None:
            self._files = FileStore(None)
        return self._files

    # ---------------------------------------------------------- persistence

    def save(self) -> None:
        """Force every buffered WAL byte to stable storage.

        Writes are already logged as they happen; this is an fsync
        barrier (useful under ``durability=none|batch``).  A no-op for
        purely in-memory databases.
        """
        if self._engine is not None:
            self._engine.flush()

    def close(self) -> None:
        """Stop the compaction thread and close the WAL writers."""
        if self._engine is not None:
            self._engine.close()

    def compact(self) -> Dict[str, Dict[str, Any]]:
        """Seal + merge every collection's segments right now.

        The background compactor does this on its own cadence; the
        explicit form exists for the CLI and for shutdown hygiene.
        Returns per-collection merge stats ({} for memory databases).
        """
        if self._engine is None:
            return {}
        return self._engine.compact_all()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ recovery

    def _recover(self) -> None:
        """Replay every persisted collection out of the engine."""
        for name in self._engine.existing_names():
            store = self._engine.store(name)
            documents, indexes, report = store.load()
            coll = Collection(name, store=store)
            coll.load_replayed(documents, indexes)
            self._collections[name] = coll
            self._recovery[name] = report

    def recovery_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-collection crash-recovery summary from this open:
        records replayed, WAL records, torn bytes truncated."""
        with self._lock:
            return {k: dict(v) for k, v in self._recovery.items()}

    # ---------------------------------------------------------------- stats

    def describe(self) -> Dict[str, int]:
        """Return a {collection: document count} summary."""
        with self._lock:
            return {
                name: len(coll) for name, coll in self._collections.items()
            }

    def storage_stats(self) -> Dict[str, Any]:
        """Engine + blob-store shape for ``repro db stats``."""
        with self._lock:
            collections: Dict[str, Dict[str, Any]] = {}
            engine_stats = (
                self._engine.stats() if self._engine is not None else {}
            )
            for name, coll in self._collections.items():
                entry: Dict[str, Any] = {
                    "documents": len(coll),
                    "indexes": coll.index_fields(),
                }
                entry.update(
                    engine_stats.get(
                        name,
                        {"segments": 0, "segment_bytes": 0, "wal_bytes": 0},
                    )
                )
                collections[name] = entry
        stats: Dict[str, Any] = {
            "durability": self.durability if self.root else "memory",
            "collections": collections,
        }
        if self._files is not None:
            stats["filestore"] = self._files.stats()
        return stats
