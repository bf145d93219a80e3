"""A collection of documents with Mongo-like operations.

Supports the operations the artifact layer relies on: insert with duplicate
protection via unique indexes, querying with the operator language from
:mod:`repro.db.query`, field updates, and deletion.  Documents are plain
dicts; ``insert_one``/``replace_one`` store a deep copy and ``find``
returns deep copies, so callers can never mutate the database behind its
back — and, nothing else mutating a stored document either,
``update_one`` may build the next version by *path copy*: new dicts along
the paths it touches, the values it is given copied, every other subtree
shared with the version it replaces.

Two kinds of indexes serve ``find()`` without scanning:

- **unique** (:meth:`Collection.create_unique_index`) — field → doc id,
  doubling as the uniqueness constraint;
- **secondary non-unique** (:meth:`Collection.create_index`) — field →
  set of doc ids, multikey over list values (each element is indexed, as
  in Mongo), serving equality and scalar ``$in`` fast paths.

When the collection is bound to a durable store (a file-backed database),
every acknowledged mutation is appended to the write-ahead log *before*
it is applied in memory — if logging fails, the caller sees the error and
the collection is unchanged, so memory never runs ahead of disk.
"""

from __future__ import annotations

import copy
import threading
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
from repro.db.query import (
    MISSING as _MISSING,
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
        self, name: str, store: Optional["CollectionStore"] = None
    ):
        self.name = name
        self._documents: Dict[str, Dict[str, Any]] = {}
        #: field → {index key → doc id}.  The map *is* the index: it
        #: enforces uniqueness at O(1) per write and serves equality
        #: lookups on the field without scanning the collection.
        self._unique_indexes: Dict[str, Dict[Any, str]] = {}
        #: field → {index key → set of doc ids}: non-unique secondary
        #: indexes; list values index every element (multikey).
        self._secondary_indexes: Dict[str, Dict[Any, Set[str]]] = {}
        #: Durable op log (a CollectionStore) or None for memory-only.
        self._store = store
        self._lock = threading.RLock()

    # ------------------------------------------------------------- indexes

    def create_unique_index(self, field: str) -> None:
        """Enforce that no two documents share a value for ``field``.

        Documents missing the field are exempt (sparse-index semantics),
        which is what lets non-repository artifacts omit git info.
        """
        with self._lock:
            known = field in self._unique_indexes
            seen: Dict[Any, str] = {}
            for doc_id, doc in self._documents.items():
                value = get_path(doc, field)
                if value is _MISSING or _unset(value):
                    continue
                key = _index_key(value)
                if key in seen:
                    raise DuplicateError(
                        f"existing documents violate unique index on "
                        f"{field!r}"
                    )
                seen[key] = doc_id
            if self._store is not None and not known:
                self._store.log_index(field, unique=True)
            self._unique_indexes[field] = seen

    def create_index(self, field: str) -> None:
        """Build a non-unique secondary index over ``field``.

        Serves ``find()`` equality and scalar ``$in`` queries from the
        index instead of a collection scan.  List values are multikey:
        each element is indexed, so equality-with-element matches keep
        working through the fast path.  Idempotent.
        """
        with self._lock:
            if field in self._secondary_indexes:
                return
            index: Dict[Any, Set[str]] = {}
            for doc_id, doc in self._documents.items():
                for key in self._entry_keys(doc, field):
                    index.setdefault(key, set()).add(doc_id)
            if self._store is not None:
                self._store.log_index(field, unique=False)
            self._secondary_indexes[field] = index

    def index_fields(self) -> Dict[str, str]:
        """{field: "unique" | "secondary" | "unique+secondary"}."""
        with self._lock:
            fields = {f: "unique" for f in self._unique_indexes}
            for f in self._secondary_indexes:
                fields[f] = "unique+secondary" if f in fields else "secondary"
            return fields

    @staticmethod
    def _entry_keys(doc: Dict[str, Any], field: str) -> List[Any]:
        """Index keys a document contributes to a secondary index."""
        value = get_path(doc, field)
        if value is _MISSING or _unset(value):
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
            if value is _MISSING or _unset(value):
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
            if value is _MISSING or _unset(value):
                continue
            index[_index_key(value)] = document["_id"]
        for field, sets in self._secondary_indexes.items():
            for key in self._entry_keys(document, field):
                sets.setdefault(key, set()).add(document["_id"])

    def _index_remove(self, document: Dict[str, Any]) -> None:
        for field, index in self._unique_indexes.items():
            value = get_path(document, field)
            if value is _MISSING or _unset(value):
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
        search to at most one document; equality or scalar ``$in`` on a
        secondary-indexed field pins it to the index buckets.  Anything
        else falls back to a full scan.  Every candidate is still
        filtered through ``matches``, so this is purely an access-path
        decision.
        """
        for field in ("_id", *self._unique_indexes):
            if field not in query:
                continue
            value = query[field]
            if isinstance(value, (dict, list)) or _unset(value):
                continue  # operator / non-scalar / sparse: no fast path
            if field == "_id":
                doc_id = value if value in self._documents else None
            else:
                doc_id = self._unique_indexes[field].get(
                    _index_key(value)
                )
            if doc_id is None or doc_id not in self._documents:
                return []
            return [self._documents[doc_id]]
        hit = self._secondary_candidates(query)
        if hit is not None:
            return hit
        return self._documents.values()

    def _secondary_candidates(
        self, query: Dict[str, Any]
    ) -> Optional[List[Dict[str, Any]]]:
        for field, index in self._secondary_indexes.items():
            if field not in query:
                continue
            condition = query[field]
            keys = self._condition_keys(condition)
            if keys is None:
                continue
            ids: Set[str] = set()
            for key in keys:
                ids.update(index.get(key, ()))
            return [
                self._documents[doc_id]
                for doc_id in ids
                if doc_id in self._documents
            ]
        return None

    @staticmethod
    def _condition_keys(condition: Any) -> Optional[List[Any]]:
        """Index keys answering a field condition, or None for no fast
        path (operators other than ``$in``, lists, unset values)."""
        if isinstance(condition, list) or _unset(condition):
            return None
        if isinstance(condition, dict):
            if set(condition) != {"$in"}:
                return None
            values = condition["$in"]
            if not isinstance(values, (list, tuple)):
                return None  # matches() raises the ValidationError
            if any(_unset(value) for value in values):
                return None  # sparse values are not indexed; scan
            return [_index_key(value) for value in values]
        return [_index_key(condition)]

    # -------------------------------------------------------------- insert

    def insert_one(self, document: Dict[str, Any]) -> str:
        """Insert a document, assigning ``_id`` if absent; returns the id.

        On a durable collection the insert is WAL-logged before it is
        applied: when ``insert_one`` returns, the write survives a crash
        (to the extent of the configured durability mode).
        """
        if not isinstance(document, dict):
            raise ValidationError("documents must be dicts")
        with self._lock:
            doc = copy.deepcopy(document)
            doc_id = doc.setdefault("_id", new_uuid())
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
        """Return copies of all matching documents."""
        query = query or {}
        with self._lock:
            found = [
                copy.deepcopy(doc)
                for doc in self._candidates(query)
                if matches(doc, query)
            ]
        if sort:
            found = sort_documents(found, sort)
        if limit is not None:
            found = found[:limit]
        if fields is not None:
            found = [project(doc, fields) for doc in found]
        return found

    def find_one(
        self, query: Optional[Dict[str, Any]] = None, **kwargs
    ) -> Optional[Dict[str, Any]]:
        results = self.find(query, limit=1, **kwargs)
        return results[0] if results else None

    def count(self, query: Optional[Dict[str, Any]] = None) -> int:
        query = query or {}
        with self._lock:
            return sum(
                1 for doc in self._candidates(query) if matches(doc, query)
            )

    # -------------------------------------------------------------- update

    def update_one(
        self, query: Dict[str, Any], update: Dict[str, Any]
    ) -> bool:
        """Apply ``$set``/``$inc``/``$push``/``$unset`` to the first match.

        Returns True when a document was updated.  The next version is
        built beside the stored one (:func:`_updated`), checked, logged
        as its effect — what each touched path holds now, not the
        operators — and only then swapped in: an update refused at any
        of those steps leaves the stored document as it was.
        """
        with self._lock:
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
        with self._lock:
            for doc in self._candidates(query):
                if matches(doc, query):
                    doc_id = doc["_id"]
                    replacement = copy.deepcopy(document)
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
        with self._lock:
            for doc in self._candidates(query):
                if matches(doc, query):
                    if self._store is not None:
                        self._store.log_delete(doc["_id"])
                    self._index_remove(doc)
                    del self._documents[doc["_id"]]
                    return True
            return False

    # ----------------------------------------------------------- recovery

    def load_replayed(
        self,
        documents: Dict[str, Dict[str, Any]],
        indexes: Sequence[Tuple[str, bool]] = (),
    ) -> None:
        """Adopt recovered state wholesale, without re-logging it.

        Used by the database right after engine replay: the documents
        and index definitions came *from* the WAL/segments, so pushing
        them back through the logging insert path would double-write
        every record on every open.
        """
        with self._lock:
            store = self._store
            self._store = None  # suppress logging while rebuilding
            try:
                self._documents = {
                    doc_id: doc for doc_id, doc in documents.items()
                }
                for field, unique in indexes:
                    if unique:
                        self.create_unique_index(field)
                    else:
                        self.create_index(field)
            finally:
                self._store = store

    # ---------------------------------------------------------------- misc

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        with self._lock:
            snapshot = [copy.deepcopy(d) for d in self._documents.values()]
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
    raising half-way — a later operator that does not apply, the
    caller's unique check — abandons the update whole.
    """
    if not update or not all(key.startswith("$") for key in update):
        raise ValidationError(
            "updates must use operators such as $set / $inc / $push"
        )
    candidate = dict(document)
    touched: List[str] = []
    for op, changes in update.items():
        if op not in ("$set", "$inc", "$push", "$unset"):
            raise ValidationError(f"unknown update operator: {op}")
        for path in changes:
            if path.split(".", 1)[0] == "_id":
                # The id is the document's key in the collection and in
                # the log; a version filed under one id that says it is
                # another comes back from a replay as two documents.
                raise ValidationError(f"{op} cannot change {path!r}")
            if op == "$unset":
                unset_path(candidate, path)
                touched.append(path)
                continue
            if op == "$set":
                value = copy.deepcopy(changes[path])
            else:
                current = get_path(candidate, path)
                if op == "$inc":
                    base = 0 if current is _MISSING else current
                    value = base + changes[path]
                elif current is _MISSING:
                    value = [copy.deepcopy(changes[path])]
                elif isinstance(current, list):
                    value = [*current, copy.deepcopy(changes[path])]
                else:
                    raise ValidationError(f"$push target {path!r} not a list")
            touched.append(set_path(candidate, path, value))
    return candidate, touched


def _effect(
    candidate: Dict[str, Any], touched: List[str]
) -> Tuple[Dict[str, Any], List[str]]:
    """An update as absolute facts: ``({path: value}, [path gone])``.

    Read off the finished ``candidate``, so ``$inc``/``$push`` and paths
    assigned twice give their results; a path below another touched one
    is covered by it, which leaves paths that cannot overlap and so
    apply in any order.
    """
    assigned: Dict[str, Any] = {}
    gone: Set[str] = set()
    for path in touched:
        if any(path.startswith(other + ".") for other in touched):
            continue
        value = get_path(candidate, path)
        if value is _MISSING:
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
