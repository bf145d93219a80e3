"""A collection of documents with Mongo-like operations.

Supports the operations the artifact layer relies on: insert with
duplicate protection via unique indexes, querying with the equality,
``$ne`` and ``$exists`` forms of :mod:`repro.db.query`,
``$set``/``$unset`` updates, and deletion.  Documents are plain dicts;
what ``insert_one``/``replace_one`` store, what ``find`` and iteration
hand out and every ``$set`` value is a
:func:`~repro.common.jsonutil.json_copy`, so callers can never mutate
the database behind its back.  That copy is the form the log replays (a
tuple becomes a list, a non-``str`` key ``str(key)``): a query matches
the same documents before and after a reopen.  Nothing else mutating a
stored document either, ``update_one`` may build the next version by
*path copy*: new dicts along the paths it touches, every other subtree
shared with the version it replaces.

Two kinds of indexes serve ``find()`` without scanning:

- **unique** (:meth:`Collection.create_unique_index`) — field → doc id,
  doubling as the uniqueness constraint;
- **secondary non-unique** (:meth:`Collection.create_index`) — field →
  set of doc ids, multikey over list values (each element is indexed, as
  in Mongo), serving equality fast paths.

An index is schema, not data: it is never logged, and the code that
owns a collection declares it every time it opens the collection.

When the collection is bound to a durable store (a file-backed database),
every acknowledged mutation is appended to the write-ahead log *before*
it is applied in memory — if logging fails, the caller sees the error and
the collection is unchanged, so memory never runs ahead of disk.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from repro.db.engine.segments import CollectionStore

from repro.common.errors import DuplicateError, ValidationError
from repro.common.ids import new_uuid
from repro.common.jsonutil import json_copy
from repro.db.query import (
    MISSING,
    check_query,
    get_path,
    matches,
    project,
    set_path,
    sort_documents,
    unset_path,
)


class Collection:
    """An ordered set of documents with unique-index enforcement."""

    def __init__(
        self,
        name: str,
        store: Optional["CollectionStore"] = None,
        documents: Optional[Dict[str, Dict[str, Any]]] = None,
    ):
        self.name = name
        #: What the store's replay recovered, adopted as it is: it came
        #: *from* the log, so it is not logged again.
        self._documents: Dict[str, Dict[str, Any]] = documents or {}
        #: field → {index key → doc id}.  The map *is* the index: it
        #: enforces uniqueness at O(1) per write and serves equality
        #: lookups on the field without scanning the collection.
        self._unique_indexes: Dict[str, Dict[Any, str]] = {}
        #: field → {index key → set of doc ids}: non-unique secondary
        #: indexes; list values index every element (multikey).
        self._secondary_indexes: Dict[str, Dict[Any, Set[str]]] = {}
        #: Durable op log (a CollectionStore) or None for memory-only.
        self._store = store

    # ------------------------------------------------------------- indexes

    def create_unique_index(self, field: str) -> None:
        """Enforce that no two documents share a value for ``field``.

        Documents missing the field are exempt (sparse-index semantics),
        which is what lets non-repository artifacts omit git info.
        Idempotent.
        """
        if field in self._unique_indexes:
            return
        seen: Dict[Any, str] = {}
        for doc_id, doc in self._documents.items():
            value = get_path(doc, field)
            if value is MISSING or _unset(value):
                continue
            key = _index_key(value)
            if key in seen:
                raise DuplicateError(
                    f"existing documents violate unique index on "
                    f"{field!r}"
                )
            seen[key] = doc_id
        self._unique_indexes[field] = seen

    def create_index(self, field: str) -> None:
        """Build a non-unique secondary index over ``field``.

        Serves ``find()`` equality queries from the index instead of a
        collection scan.  List values are multikey: each element is
        indexed, so equality-with-element matches keep working through
        the fast path.  Idempotent.
        """
        if field in self._secondary_indexes:
            return
        index: Dict[Any, Set[str]] = {}
        for doc_id, doc in self._documents.items():
            for key in self._entry_keys(doc, field):
                index.setdefault(key, set()).add(doc_id)
        self._secondary_indexes[field] = index

    @staticmethod
    def _entry_keys(doc: Dict[str, Any], field: str) -> List[Any]:
        """Index keys a document contributes to a secondary index."""
        value = get_path(doc, field)
        if value is MISSING or _unset(value):
            return []
        keys = [_index_key(value)]
        if isinstance(value, list):
            keys.extend(_index_key(item) for item in value)
        return keys

    def _check_unique(
        self, document: Dict[str, Any], ignore_id: Optional[str] = None
    ) -> None:
        for field, index in self._unique_indexes.items():
            value = get_path(document, field)
            if value is MISSING or _unset(value):
                continue
            holder = index.get(_index_key(value))
            if holder is not None and holder != ignore_id:
                raise DuplicateError(
                    f"duplicate value for unique field {field!r}: "
                    f"{value!r}"
                )

    def _index_add(self, document: Dict[str, Any]) -> None:
        for field, index in self._unique_indexes.items():
            value = get_path(document, field)
            if value is MISSING or _unset(value):
                continue
            index[_index_key(value)] = document["_id"]
        for field, sets in self._secondary_indexes.items():
            for key in self._entry_keys(document, field):
                sets.setdefault(key, set()).add(document["_id"])

    def _index_remove(self, document: Dict[str, Any]) -> None:
        for field, index in self._unique_indexes.items():
            value = get_path(document, field)
            if value is MISSING or _unset(value):
                continue
            key = _index_key(value)
            if index.get(key) == document["_id"]:
                del index[key]
        for field, sets in self._secondary_indexes.items():
            for key in self._entry_keys(document, field):
                bucket = sets.get(key)
                if bucket is None:
                    continue
                bucket.discard(document["_id"])
                if not bucket:
                    del sets[key]

    def _candidates(self, query: Dict[str, Any]):
        """The documents a query can possibly match, cheaply.

        Equality on ``_id`` or on a uniquely-indexed field pins the
        search to at most one document; equality on a secondary-indexed
        field pins it to that value's bucket.  Anything else falls back
        to a full scan.  Every candidate is still filtered through
        ``matches``, so this is purely an access-path decision.  All
        five query entry points come through here, so
        :func:`check_query` refuses a query outside the language first,
        whatever the collection holds.
        """
        check_query(query)
        for field in ("_id", *self._unique_indexes, *self._secondary_indexes):
            if field not in query:
                continue
            value = query[field]
            if isinstance(value, (dict, list)) or _unset(value):
                continue  # operator / non-scalar / sparse: no fast path
            if field == "_id":
                ids = (value,)
            elif field in self._unique_indexes:
                ids = (self._unique_indexes[field].get(_index_key(value)),)
            else:
                ids = self._secondary_indexes[field].get(_index_key(value), ())
            return [self._documents[i] for i in ids if i in self._documents]
        return self._documents.values()

    # -------------------------------------------------------------- insert

    def insert_one(self, document: Dict[str, Any]) -> str:
        """Insert a document, assigning ``_id`` if absent; returns the id.

        On a durable collection the insert is WAL-logged before it is
        applied: when ``insert_one`` returns, the write survives a crash
        (to the extent of the configured durability mode).
        """
        if not isinstance(document, dict):
            raise ValidationError("documents must be dicts")
        doc = json_copy(document)
        if "_id" not in doc:
            doc["_id"] = new_uuid()
        doc_id = doc["_id"]
        if doc_id in self._documents:
            raise DuplicateError(f"duplicate _id: {doc_id}")
        self._check_unique(doc)
        if self._store is not None:
            self._store.log_insert(doc)
        self._documents[doc_id] = doc
        self._index_add(doc)
        return doc_id

    # --------------------------------------------------------------- query

    def find(
        self,
        query: Optional[Dict[str, Any]] = None,
        sort: Optional[List[tuple]] = None,
        limit: Optional[int] = None,
        fields: Optional[Sequence[str]] = None,
    ) -> List[Dict[str, Any]]:
        """Return copies of the matching documents, and copy nothing
        else: sort, limit and projection read the stored ones."""
        query = query or {}
        found = (
            doc for doc in self._candidates(query) if matches(doc, query)
        )
        if sort:
            found = sort_documents(found, sort)
        if limit is not None:
            found = itertools.islice(found, limit)
        if fields is not None:
            found = (project(doc, fields) for doc in found)
        return [json_copy(doc) for doc in found]

    def find_one(
        self, query: Optional[Dict[str, Any]] = None, **kwargs
    ) -> Optional[Dict[str, Any]]:
        results = self.find(query, limit=1, **kwargs)
        return results[0] if results else None

    def count(self, query: Optional[Dict[str, Any]] = None) -> int:
        query = query or {}
        return sum(
            1 for doc in self._candidates(query) if matches(doc, query)
        )

    # -------------------------------------------------------------- update

    def update_one(
        self, query: Dict[str, Any], update: Dict[str, Any]
    ) -> bool:
        """Apply ``$set``/``$unset`` to the first match.

        Returns True when a document was updated.  The next version is
        built beside the stored one (:func:`_updated`), checked, logged
        as its effect — what each touched path holds now, not the
        operators — and only then swapped in: an update refused at any
        of those steps leaves the stored document as it was.
        """
        for doc in self._candidates(query):
            if matches(doc, query):
                doc_id = doc["_id"]
                candidate, touched = _updated(doc, update)
                self._check_unique(candidate, ignore_id=doc_id)
                if self._store is not None:
                    self._store.log_update(
                        doc_id, *_effect(candidate, touched)
                    )
                self._index_remove(doc)
                self._documents[doc_id] = candidate
                self._index_add(candidate)
                return True
        return False

    def replace_one(
        self, query: Dict[str, Any], document: Dict[str, Any]
    ) -> bool:
        for doc in self._candidates(query):
            if matches(doc, query):
                doc_id = doc["_id"]
                replacement = json_copy(document)
                replacement["_id"] = doc_id
                self._check_unique(replacement, ignore_id=doc_id)
                if self._store is not None:
                    self._store.log_replace(replacement)
                self._index_remove(doc)
                self._documents[doc_id] = replacement
                self._index_add(replacement)
                return True
        return False

    # -------------------------------------------------------------- delete

    def delete_one(self, query: Dict[str, Any]) -> bool:
        for doc in self._candidates(query):
            if matches(doc, query):
                if self._store is not None:
                    self._store.log_delete(doc["_id"])
                self._index_remove(doc)
                del self._documents[doc["_id"]]
                return True
        return False

    # ---------------------------------------------------------------- misc

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        snapshot = [json_copy(d) for d in self._documents.values()]
        return iter(snapshot)

    def all_documents(self) -> List[Dict[str, Any]]:
        """Snapshot of every document (copies), in insertion order."""
        return list(iter(self))


def _updated(
    document: Dict[str, Any], update: Dict[str, Any]
) -> Tuple[Dict[str, Any], List[str]]:
    """``document`` after ``update`` and the paths that were assigned.

    The new version is a path copy (:func:`~repro.db.query.set_path`):
    ``document`` and every dict in it are left exactly as they are, so
    raising half-way — a later path at or below ``_id``, the caller's
    unique check — abandons the update whole.
    """
    if not update or not set(update) <= {"$set", "$unset"}:
        raise ValidationError(f"updates are $set/$unset: {sorted(update)}")
    candidate = dict(document)
    touched: List[str] = []
    for op, changes in update.items():
        for path in changes:
            if path.split(".", 1)[0] == "_id":
                # The id is the document's key in the collection and in
                # the log; a version filed under one id that says it is
                # another comes back from a replay as two documents.
                raise ValidationError(f"{op} cannot change {path!r}")
            if op == "$unset":
                unset_path(candidate, path)
                touched.append(path)
            else:
                value = json_copy(changes[path])
                touched.append(set_path(candidate, path, value))
    return candidate, touched


def _effect(
    candidate: Dict[str, Any], touched: List[str]
) -> Tuple[Dict[str, Any], List[str]]:
    """An update as absolute facts: ``({path: value}, [path gone])``.

    Read off the finished ``candidate``, so a path assigned or removed
    twice gives its result; a path below another touched one is covered
    by it, which leaves paths that cannot overlap and so apply in any
    order.
    """
    assigned: Dict[str, Any] = {}
    gone: Set[str] = set()
    for path in touched:
        if any(path.startswith(other + ".") for other in touched):
            continue
        value = get_path(candidate, path)
        if value is MISSING:
            gone.add(path)
        else:
            assigned[path] = value
    return assigned, sorted(gone)


def _unset(value: Any) -> bool:
    """Treat None and empty dicts as absent for sparse unique indexes."""
    return value is None or value == {}


def _index_key(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _index_key(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_index_key(v) for v in value)
    return value
