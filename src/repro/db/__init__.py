"""An embedded document database — the MongoDB substitute.

gem5art stores artifacts and run results in MongoDB (documents keyed by UUID
and content hash) and stores the associated binary blobs in GridFS.  Neither
is available offline, so this package provides behaviour-compatible
replacements:

- :class:`Collection` — documents with Mongo-style queries, unique indexes
  and non-unique secondary indexes,
- :class:`Database` — a set of named collections persisted through the
  embedded storage engine (:mod:`repro.db.engine`: write-ahead log,
  one sealed segment, compaction, crash recovery),
- :class:`FileStore` — a content-addressed blob store (the GridFS
  stand-in) with hash-prefix sharding and scrub-and-quarantine repair,
- :func:`connect` — URI-based entry point (``memory://`` or
  ``file:///path?durability=none|batch|strict``).
"""

from repro.db.query import matches, sort_documents, project
from repro.db.collection import Collection
from repro.db.engine import DURABILITY_MODES
from repro.db.database import Database
from repro.db.filestore import FileStore
from repro.db.client import connect

__all__ = [
    "matches",
    "sort_documents",
    "project",
    "Collection",
    "Database",
    "DURABILITY_MODES",
    "FileStore",
    "connect",
]
