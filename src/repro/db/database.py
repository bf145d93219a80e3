"""A named set of collections backed by the embedded storage engine.

Mirrors the role MongoDB plays for gem5art: a durable home for artifact and
run documents.  A database can live purely in memory (tests) or be bound to
a directory, where each collection persists through the
:mod:`repro.db.engine` sealed segment + write-ahead log and blobs live
under ``files/`` via the :class:`~repro.db.filestore.FileStore`::

    <root>/
        engine/<collection>/   # segment.seg + wal.log per collection
        files/<xx>/<digest>    # sharded content-addressed blobs

Every acknowledged write is WAL-logged immediately; ``save()`` is only
an fsync barrier and reopening a database is crash recovery: the segment
replays strictly checksummed, the WAL tail is healed, and whatever a
``durability=strict`` writer acknowledged is guaranteed back.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional

from repro.common.errors import ValidationError
from repro.db.collection import Collection
from repro.db.engine import CollectionStore, check_durability
from repro.db.filestore import FileStore


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
        self.name = name
        self.root = root
        self.durability = check_durability(durability)
        self._collections: Dict[str, Collection] = {}
        self._stores: Dict[str, CollectionStore] = {}
        self._lock = threading.RLock()
        self._files: Optional[FileStore] = None
        self._recovery: Dict[str, Dict[str, Any]] = {}
        if root is not None:
            self._engine_root = os.path.join(root, "engine")
            os.makedirs(self._engine_root, exist_ok=True)
            self._files = FileStore(os.path.join(root, "files"))
            # Reopening is crash recovery: every persisted collection
            # (a directory under engine/) is replayed here.
            for entry in sorted(os.listdir(self._engine_root)):
                if os.path.isdir(os.path.join(self._engine_root, entry)):
                    self._recovery[entry] = self._open(entry)

    # ---------------------------------------------------------- collections

    def collection(self, name: str) -> Collection:
        """Return (creating on first use) the named collection."""
        with self._lock:
            if name not in self._collections:
                if self.root is None:
                    self._collections[name] = Collection(name)
                else:
                    self._open(name)
            return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def _open(self, name: str) -> Dict[str, Any]:
        """Bind ``name`` to its on-disk store, replaying what is there;
        returns the store's recovery report."""
        store = CollectionStore(self._engine_root, name, self.durability)
        documents, indexes, report = store.load()
        collection = Collection(name, store=store)
        collection.load_replayed(documents, indexes)
        self._stores[name] = store
        self._collections[name] = collection
        return report

    def _each_store(self) -> List[CollectionStore]:
        with self._lock:
            return list(self._stores.values())

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
        for store in self._each_store():
            store.flush()

    def close(self) -> None:
        """Flush and close the WAL writers."""
        for store in self._each_store():
            store.close()

    def compact(self) -> Dict[str, Dict[str, Any]]:
        """Fold every collection's WAL into its segment right now.

        An append does this on its own once the WAL has outgrown
        ``COMPACT_BYTES`` and the segment; the explicit form exists for
        the CLI.  Returns per-collection stats ({} for memory
        databases); unlike the inline form, a failure raises.
        """
        return {store.name: store.compact() for store in self._each_store()}

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ recovery

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
            for name, coll in self._collections.items():
                store = self._stores.get(name)
                collections[name] = {
                    "documents": len(coll),
                    "indexes": coll.index_fields(),
                    **(
                        store.stats()
                        if store is not None
                        else {"segment_bytes": 0, "wal_bytes": 0}
                    ),
                }
        stats: Dict[str, Any] = {
            "durability": self.durability if self.root else "memory",
            "collections": collections,
        }
        if self._files is not None:
            stats["filestore"] = self._files.stats()
        return stats
