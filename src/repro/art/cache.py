"""Content-addressed memoization: one protocol, and the run cache on it.

gem5art's agility claim (§III-B) is that a run already present in the
database never needs to execute again: identical input hashes imply an
identical result.  :class:`MemoStore` is that claim as a protocol — a
key names an *entry*, verified against a *blob* in the content-addressed
file store — and :class:`RunCache` is its first user: it maps a
:class:`~repro.art.spec.RunSpec` fingerprint to the run that first
executed it and lets later runs *adopt* that run's result instead of
simulating.  An entry is its producer's own record, found through an
index on the key: a run's document (over ``runs``) or a journaled
stage's (the pipeline's :class:`~repro.pipeline.journal.StageCache`,
over ``pipeline_runs``), so neither cache writes anything.  A boot has
no other record: :class:`~repro.art.checkpoints.CheckpointStore` writes
its own documents.

A consult is a *read*: a hit writes nothing.  How often an entry was
served is what its adopters' own documents say (a run's ``cached_from``),
counted by :meth:`MemoStore.tallies` when someone asks.

Integrity is free because a blob id **is** the SHA-256 of its bytes: a
consult re-downloads the blob (the run cache: once per digest per
launch) and the store itself raises
:class:`~repro.common.errors.CorruptBlobError` on any mismatch.  A
corrupt entry is dropped (rotten blob included, so the recompute can
re-populate the content address), a ``<noun>.corrupt`` event is emitted,
and the caller falls back to recomputing — a memo store serves
stale-free results or nothing, never silently wrong bytes.

Only runs that reached ``DONE`` are entries.  A simulation-level failure
(a kernel panic in a boot test) is a valid, memoizable outcome; a
host-level failure (``FAILED`` / ``TIMED_OUT``) is retryable
infrastructure noise and is never served from cache.

Invalidation cascades through content: ``invalidate(token)`` accepts an
entry's key *or* another name the store says it answers to — for the run
cache an artifact content hash, which revokes every cached run that
consumed that artifact: rebuilding one disk image re-runs exactly its
dependent points and nothing else.
"""

from __future__ import annotations

import collections
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro import chaos, telemetry
from repro.common.errors import (
    CorruptBlobError,
    FaultInjectedError,
    NotFoundError,
    ValidationError,
)
from repro.art.db import ArtifactDB

Entry = Dict[str, Any]

_COUNTER_HELP = {
    "hits": "Consultations served from the store instead of recomputing",
    "misses": "Consultations that found nothing adoptable and recomputed",
    "corrupt": "Entries dropped because their blob failed hash verification",
}


class MemoStore:
    """Key → (producer document, verified blob) over an :class:`ArtifactDB`.

    An entry is the earliest (by ``_STAMP``, then ``_id``) *producer*: a
    document of the store's collection that holds the key, matches
    ``_PRODUCER`` and is not ``cache_revoked``, read with the ``_FIELDS``
    projection.  A subclass names its collection, the key field, the
    ``noun`` that spells its chaos point (``<noun>.get``), events
    (``<noun>.hit|miss|corrupt|error|invalidate``) and counters
    (``<noun>_hits|misses|corrupt_total``); which entry fields carry the
    producer's id and the hit counter's label; how ``repro cache ls``
    lists it; where an entry's blob is (:meth:`blob_id`), what a hit
    hands back (:meth:`decode`) and who adopted it (:meth:`tallies`).
    """

    noun: str
    collection_name: str
    key_field: str
    origin_field: str
    label_field: str
    #: ``(title, columns)`` of ``repro cache ls``; a column is ``(header,
    #: entry field, max width)`` and ``"tally"`` is the derived field.
    listing: Tuple[str, Tuple[Tuple[str, str, Optional[int]], ...]]

    _PRODUCER = {}
    _FIELDS = None
    #: Digests a consult has verified and need not read again, or None:
    #: read every time, as a store whose :meth:`decode` uses the payload
    #: must.
    _verified = None

    def __init__(self, db: ArtifactDB):
        self.db = db
        self.collection = db.database.collection(self.collection_name)

    def decode(self, entry: Entry, payload: Optional[bytes]) -> Any:
        """What a hit hands back: the entry, unless the payload is it."""
        return entry

    def tokens(self, entry: Entry) -> Iterable[str]:
        """What :meth:`invalidate` accepts for an entry besides its key."""
        return ()

    # -------------------------------------------------------------- lookup

    def _candidates(
        self, key: Any, fields: Optional[Iterable[str]]
    ) -> List[Entry]:
        """The documents that can produce ``key`` (a value or a
        condition), earliest first."""
        query = dict(self._PRODUCER, cache_revoked={"$exists": False})
        query[self.key_field] = key
        return sorted(
            self.collection.find(query, fields=fields),
            key=lambda doc: (doc.get(self._STAMP, ""), doc["_id"]),
        )

    def lookup(self, key: str) -> Optional[Entry]:
        """The producer of ``key``, or None: one (indexed) find."""
        return next(iter(self._candidates(key, self._FIELDS)), None)

    def entries(self) -> List[Entry]:
        """Every key's producer, earliest first."""
        first: Dict[str, Entry] = {}
        for doc in self._candidates({"$exists": True}, self._FIELDS):
            first.setdefault(doc[self.key_field], doc)
        return list(first.values())

    def _adopted(self, docs: Iterable[Entry], field: str) -> Dict[str, int]:
        """Key → how many adopters' ``docs`` name the entry's producer
        in ``field``: a tally nobody stores, because every adopter
        already recorded where its result came from."""
        served = collections.Counter(doc.get(field) for doc in docs)
        return {
            entry[self.key_field]: served[entry.get(self.origin_field)]
            for entry in self.entries()
        }

    def stats(self, tally: str = "adoptions") -> Entry:
        """Summary counts (``repro cache stats``): entries, how often
        they were served (see :meth:`tallies`), and entries per label."""
        entries, tallies = self.entries(), self.tallies()
        by_label = collections.Counter(
            entry[self.label_field] for entry in entries
        )
        return {
            "entries": len(entries),
            tally: sum(
                tallies.get(entry[self.key_field], 0) for entry in entries
            ),
            f"by_{self.label_field}": dict(by_label),
        }

    def consult(self, key: str) -> Any:
        """Look up and *verify* an entry; None means recompute.

        The verification downloads the entry's blob, which the
        content-addressed store checks against its digest, unless the
        digest is in the store's verified set already.  Failure modes
        degrade, never escalate: a missing blob or an injected read fault
        is a miss, and a corrupt blob drops the entry and is a miss — the
        slow path always remains.  A consult writes nothing but that drop.
        """
        try:
            chaos.fire(f"{self.noun}.get", **{self.key_field: key})
            entry = self.lookup(key)
        except FaultInjectedError as error:
            return self._miss(key, "read-fault", str(error))
        if entry is None:
            return self._miss(key, "absent")
        payload, blob_id = None, self.blob_id(entry)
        if blob_id is not None and blob_id not in (self._verified or ()):
            try:
                # get_bytes() hashes what it reads and raises
                # CorruptBlobError itself on mismatch.
                payload = self.db.download_file(blob_id)
            except CorruptBlobError as error:
                self._count("corrupt")
                self._emit("corrupt", **self._names(entry), error=str(error))
                # Empty the address too, so the recompute can re-populate
                # it: put_bytes() is dedup-by-digest, and while rotten
                # bytes sit there re-archiving the content is skipped.
                self.db.delete_file(blob_id)
                self._drop(entry, "corrupt")
                return self._miss(key, "corrupt")
            except (NotFoundError, FaultInjectedError) as error:
                return self._miss(key, "blob-missing", str(error))
            if self._verified is not None:
                self._verified.add(blob_id)
        value = self.decode(entry, payload)
        self._count("hits", **{self.label_field: entry[self.label_field]})
        self._emit("hit", **self._names(entry))
        return value

    def _names(self, entry: Entry) -> Entry:
        """An entry's key and producer id, as event attributes."""
        return {
            self.key_field: entry[self.key_field],
            self.origin_field: entry.get(self.origin_field),
        }

    def _emit(self, what: str, **attributes: Any) -> None:
        telemetry.get_event_log().emit(f"{self.noun}.{what}", **attributes)

    def _count(self, what: str, **labels: str) -> None:
        telemetry.get_metrics().counter(
            f"{self.noun}_{what}_total", _COUNTER_HELP[what]
        ).inc(**labels)

    def _miss(
        self, key: str, reason: str, error: Optional[str] = None
    ) -> None:
        if error is not None:
            self._emit("error", **{self.key_field: key}, error=error)
        self._count("misses", reason=reason)
        self._emit("miss", **{self.key_field: key}, reason=reason)

    # --------------------------------------------------------- invalidation

    def _drop(self, entry: Entry, reason: str) -> None:
        """Take an entry out of service (``reason``: ``corrupt`` or
        ``invalidated``): revoke, never delete, every producer of its
        key; the next document to qualify takes over."""
        for doc in self._candidates(entry[self.key_field], ()):
            self.collection.update_one(
                {"_id": doc["_id"]}, {"$set": {"cache_revoked": reason}}
            )

    def evict(self, token: str) -> int:
        """Evict by key or by another of an entry's :meth:`tokens`.

        A key evicts exactly its entry; any other token evicts every
        entry that answers to it (the run cache's artifact-hash cascade,
        the stage cache's stage name).  Only entries go — the blobs
        belong to the documents that archived them; returns how many.
        """
        entry = self.lookup(token)
        doomed = [entry] if entry is not None else [
            candidate
            for candidate in self.entries()
            if token in self.tokens(candidate)
        ]
        for entry in doomed:
            self._drop(entry, "invalidated")
            self._emit("invalidate", **self._names(entry), token=token)
        return len(doomed)

    def invalidate(self, token: str) -> int:
        """:meth:`evict`, as typed by an operator: a token that matches
        nothing exactly is retried as a git-style prefix (``cache ls``
        shows abbreviated keys) — only then, so a full token is never
        shadowed by a longer one it prefixes — and an ambiguous prefix
        raises :class:`~repro.common.errors.ValidationError` rather than
        guess."""
        names = {
            name
            for entry in self.entries()
            for name in (entry[self.key_field], *self.tokens(entry))
        }
        if token not in names:
            matches = {
                name for name in names if token and name.startswith(token)
            }
            if len(matches) > 1:
                raise ValidationError(
                    f"ambiguous prefix {token!r} matches "
                    f"{len(matches)} cache tokens; use more characters"
                )
            if not matches:
                return 0
            (token,) = matches
        return self.evict(token)


class RunCache(MemoStore):
    """Fingerprint → its *producer*: the ``done`` run with it that did
    not adopt (``cache_hit``), first to finish: no later run, forced or
    not, displaces it.  ``ArtifactDB`` declares the (non-unique) index on
    the fingerprint."""

    noun = "runcache"
    collection_name = "runs"
    key_field = "fingerprint"
    origin_field = "_id"
    label_field = "kind"
    listing = (
        "RESULT CACHE",
        (("Fingerprint", "fingerprint", 12), ("Kind", "kind", None),
         ("Run", "_id", 8), ("Hits", "tally", None),
         ("Stored", "finished_at_wall", 19)),
    )
    _PRODUCER = {"status": "done", "cache_hit": {"$exists": False}}
    _STAMP = "finished_at_wall"
    _FIELDS = ("fingerprint", "kind", "results", "finished_at_wall",
               "spec.artifacts")

    def __init__(self, db: ArtifactDB, verified: Optional[Set[str]] = None):
        """``verified``: the launch's set of digests already read and
        hash-checked (a hit hands back the entry, never the payload)."""
        super().__init__(db)
        self._verified = verified

    def store(self, fingerprint: str, run_doc: Entry) -> bool:
        """Nothing to write: a ``DONE`` run's own document is its entry.
        Kept for the row ``benchmarks/perf/traced_child.py`` traces."""
        return False

    def _names(self, entry: Entry) -> Entry:
        return {"fingerprint": entry["fingerprint"], "run_id": entry["_id"]}

    def blob_id(self, entry: Entry) -> Optional[str]:
        return (entry.get("results") or {}).get("stats_file_id")

    def tokens(self, entry: Entry) -> Iterable[str]:
        """The content hashes of the artifacts the producer consumed:
        invalidating one revokes every dependent entry."""
        return entry.get("spec", {}).get("artifacts", {}).values()

    def tallies(self) -> Dict[str, int]:
        """Fingerprint → runs that adopted the entry (their documents
        say ``cached_from`` its run)."""
        return self._adopted(
            self.collection.find({"cache_hit": True}, fields=["cached_from"]),
            "cached_from",
        )
