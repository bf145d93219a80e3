"""URI-based database entry point.

gem5art connects to its database with a URI such as
``mongodb://localhost:27017``.  We keep the ergonomics while supporting the
backends available offline:

- ``memory://`` — an ephemeral in-memory database,
- ``file:///some/dir`` — a database persisted through the storage engine
  (sealed segment + WAL) with blobs in a sharded FileStore.

A ``file://`` URI accepts a ``durability`` query parameter selecting how
eagerly acknowledged writes are fsynced::

    connect("file:///var/lib/repro?durability=strict")

with ``none``, ``batch`` (default) or ``strict`` as values.
"""

from __future__ import annotations

from urllib.parse import parse_qs, urlparse

from repro.common.errors import ValidationError
from repro.db.database import Database


def connect(uri: str = "memory://") -> Database:
    """Open a database identified by URI.

    >>> db = connect("memory://")
    >>> db.collection("artifacts").insert_one({"name": "gem5"})  # doctest: +ELLIPSIS
    '...'
    """
    parsed = urlparse(uri)
    if parsed.scheme == "memory":
        return Database(name="artifact_database", root=None)
    if parsed.scheme == "file":
        path = parsed.path
        if not path:
            raise ValidationError(f"file:// URI needs a path: {uri!r}")
        durability = "batch"
        for key, values in parse_qs(parsed.query).items():
            if key != "durability":
                raise ValidationError(
                    f"unknown database URI parameter {key!r}"
                )
            durability = values[-1]
        return Database(
            name="artifact_database", root=path, durability=durability
        )
    raise ValidationError(
        f"unsupported database URI scheme {parsed.scheme!r}; "
        "use memory:// or file:///path"
    )
