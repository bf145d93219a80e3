"""A named set of collections backed by the embedded storage engine.

Mirrors the role MongoDB plays for gem5art: a durable home for artifact and
run documents.  A database can live purely in memory (tests) or be bound to
a directory, where each collection persists through the
:mod:`repro.db.engine` sealed segment + write-ahead log and blobs live
under ``files/`` via the :class:`~repro.db.filestore.FileStore`::

    <root>/
        FORMAT                 # the on-disk format number, FORMAT
        engine/<collection>/   # segment.seg + wal.log per collection
        files/pack             # every content-addressed blob, appended

Every acknowledged write is WAL-logged and every blob appended
immediately; ``save()`` is only an fsync barrier (for the WALs and the
pack alike) and reopening a database is crash recovery: the segment
replays strictly checksummed, the WAL and pack tails are healed, and
whatever a ``durability=strict`` writer acknowledged — a blob included
— is guaranteed back, once the root's ``FORMAT`` stamp has passed.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.common.errors import FormatError, ValidationError
from repro.db.collection import Collection
from repro.db.engine import FORMAT
from repro.db.engine.wal import check_durability, fsync_dir
from repro.db.filestore import FileStore

if TYPE_CHECKING:
    from repro.db.engine.segments import CollectionStore


def _check_format(root: str) -> None:
    """Stamp a fresh root, or refuse one of another format before a byte
    of it is touched (``docs/storage.md``, "Format")."""
    stamp = os.path.join(root, "FORMAT")
    if not any(os.path.exists(os.path.join(root, part))
               for part in ("FORMAT", "engine", "files")):
        os.makedirs(root, exist_ok=True)
        with open(stamp + ".tmp", "w") as handle:
            handle.write(f"{FORMAT}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(stamp + ".tmp", stamp)
        fsync_dir(root)
    found = "none"
    if os.path.exists(stamp):
        with open(stamp, errors="replace") as handle:
            found = handle.read().strip()
    if found != str(FORMAT):
        raise FormatError(f"{stamp}: database format {found}; this "
                          f"version reads format {FORMAT} only")


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
        self._files: Optional[FileStore] = None
        self._recovery: Dict[str, Dict[str, Any]] = {}
        if root is not None:
            _check_format(root)
            self._engine_root = os.path.join(root, "engine")
            os.makedirs(self._engine_root, exist_ok=True)
            self._files = FileStore(os.path.join(root, "files"), durability)
            # Reopening is crash recovery: every persisted collection
            # (a directory under engine/) is replayed here.
            for entry in sorted(os.listdir(self._engine_root)):
                if os.path.isdir(os.path.join(self._engine_root, entry)):
                    self._recovery[entry] = self._open(entry)

    # ---------------------------------------------------------- collections

    def collection(self, name: str) -> Collection:
        """Return the named collection, replaying what is on disk.

        A collection the database does not hold comes back empty and
        stays in memory until its first write: asking for it creates
        nothing on disk.  It comes back without indexes: the code that
        owns a collection declares them each time it opens it (they
        are never logged).
        """
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
        from repro.db.engine.segments import CollectionStore

        store = CollectionStore(self._engine_root, name, self.durability)
        documents, report = store.load()
        self._stores[name] = store
        self._collections[name] = Collection(name, store, documents)
        return report

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
        """Force every buffered WAL and pack byte to stable storage.

        Writes are already logged as they happen; this is an fsync
        barrier (useful under ``durability=batch``).  A no-op for
        purely in-memory databases.
        """
        for store in self._stores.values():
            store.flush()
        if self._files is not None:
            self._files.flush()

    def close(self) -> None:
        """Flush and close the WAL writers and the pack."""
        for store in self._stores.values():
            store.close()
        if self._files is not None:
            self._files.close()

    def compact(self) -> Dict[str, Dict[str, Any]]:
        """Fold every collection's WAL into its segment right now.

        An append does this on its own once the WAL has outgrown
        ``COMPACT_BYTES`` and the segment; the explicit form exists for
        the CLI.  Returns per-collection stats ({} for memory
        databases); unlike the inline form, a failure raises.
        """
        return {store.name: store.compact() for store in self._stores.values()}

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ recovery

    def recovery_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-collection crash-recovery summary from this open:
        records replayed, WAL records, torn bytes truncated."""
        return {k: dict(v) for k, v in self._recovery.items()}

    # ---------------------------------------------------------------- stats

    def describe(self) -> Dict[str, int]:
        """Return a {collection: document count} summary."""
        return {
            name: len(coll) for name, coll in self._collections.items()
        }

    def storage_stats(self) -> Dict[str, Any]:
        """Engine + blob-store shape for ``repro db stats``."""
        collections: Dict[str, Dict[str, Any]] = {}
        for name, coll in self._collections.items():
            store = self._stores.get(name)
            collections[name] = {
                "documents": len(coll),
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
