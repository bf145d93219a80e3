"""The embedded storage engine behind file-backed databases.

``repro.db`` began as an in-memory dict flushed wholesale to JSON-lines
files — fine for a demo, fatal for a 1M-run catalog (a crash mid-``save``
loses everything since the last flush).  This package is the real engine
underneath the same :class:`~repro.db.database.Database` /
:class:`~repro.db.collection.Collection` API:

- :mod:`~repro.db.engine.wal` — checksummed, length-prefixed write-ahead
  log with a ``none|batch|strict`` durability knob and torn-tail repair;
- :mod:`~repro.db.engine.segments` — per-collection immutable sealed
  segments + active WAL, manifest-published via atomic rename;
- :mod:`~repro.db.engine.compaction` — background thread merging
  segments and dropping tombstones.

:class:`StorageEngine` owns the directory tree and the compactor; the
Database maps each collection onto a
:class:`~repro.db.engine.segments.CollectionStore` and logs every
acknowledged mutation through it *before* applying it in memory.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List

from repro.db.engine.compaction import Compactor
from repro.db.engine.segments import MANIFEST_NAME, CollectionStore
from repro.db.engine.wal import DURABILITY_MODES, WalWriter, read_log

__all__ = [
    "DURABILITY_MODES",
    "Compactor",
    "CollectionStore",
    "StorageEngine",
    "WalWriter",
    "read_log",
]

#: Whether opening an engine starts its background compactor (the crash
#: suites patch this off to keep segment files where they put them).
AUTO_COMPACT = True


class StorageEngine:
    """A directory of collection stores plus their compaction thread."""

    def __init__(self, root: str, durability: str):
        self.root = root
        self.durability = durability
        self._lock = threading.RLock()
        self._stores: Dict[str, CollectionStore] = {}
        self._closed = False
        os.makedirs(root, exist_ok=True)
        self.compactor = Compactor(self)
        if AUTO_COMPACT:
            self.compactor.start()

    # ------------------------------------------------------------- stores

    def store(self, name: str) -> CollectionStore:
        """Return (creating on first use) the named collection store."""
        with self._lock:
            if name not in self._stores:
                self._stores[name] = CollectionStore(
                    self.root, name, self.durability
                )
            return self._stores[name]

    def stores(self) -> List[CollectionStore]:
        with self._lock:
            return list(self._stores.values())

    def existing_names(self) -> List[str]:
        """Collections already persisted under this engine root."""
        names = []
        for entry in sorted(os.listdir(self.root)):
            manifest = os.path.join(self.root, entry, MANIFEST_NAME)
            if os.path.isfile(manifest):
                names.append(entry)
        return names

    # ------------------------------------------------------- maintenance

    def flush(self) -> None:
        """fsync every active WAL (the engine's ``save()``)."""
        for store in self.stores():
            store.flush()

    def compact_all(self) -> Dict[str, Dict[str, Any]]:
        """Force-compact every collection; returns per-collection stats."""
        results = {}
        for store in self.stores():
            store.seal()  # pull the active WAL into the merge, if any
            results[store.name] = store.compact()
        return results

    def stats(self) -> Dict[str, Dict[str, Any]]:
        return {store.name: store.stats() for store in self.stores()}

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.compactor.stop()
        for store in self.stores():
            store.close()
