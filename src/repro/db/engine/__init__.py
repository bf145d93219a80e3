"""The embedded storage engine behind file-backed databases.

The layer underneath the :class:`~repro.db.database.Database` /
:class:`~repro.db.collection.Collection` API that makes an acknowledged
write survive a crash:

- :mod:`~repro.db.engine.wal` — checksummed, length-prefixed write-ahead
  log with a ``none|batch|strict`` durability knob and torn-tail repair;
- :mod:`~repro.db.engine.segments` — per collection, one sealed segment
  plus the active WAL; compaction folds the second into the first, and
  replay idempotence makes every crash in between harmless.

The Database maps each collection onto a
:class:`~repro.db.engine.segments.CollectionStore` and logs every
acknowledged mutation through it *before* applying it in memory.
"""

from repro.db.engine.segments import CollectionStore
from repro.db.engine.wal import DURABILITY_MODES, check_durability

__all__ = ["DURABILITY_MODES", "CollectionStore", "check_durability"]
