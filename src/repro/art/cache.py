"""Content-addressed memoization: one protocol, and the run cache on it.

gem5art's agility claim (§III-B) is that a run already present in the
database never needs to execute again: identical input hashes imply an
identical result.  :class:`MemoStore` is that claim as a protocol — a
key names an *entry* in a unique-indexed collection plus a *blob* in the
content-addressed file store — and :class:`RunCache` is its first user:
it maps a :class:`~repro.art.spec.RunSpec` fingerprint to the archived
outcome of the run that first executed it (results summary, stats blob
id, final status) and lets later runs *adopt* that result instead of
simulating.  :class:`~repro.art.checkpoints.CheckpointStore` is the
second user and the pipeline's
:class:`~repro.pipeline.journal.StageCache` the third.

A consult is a *read*: a hit writes nothing.  How often an entry was
served is what its adopters' own documents say (a run's ``cached_from``),
counted by :meth:`MemoStore.tallies` when someone asks.

Integrity is free because a blob id **is** the SHA-256 of its bytes: a
consult re-downloads the blob and the store itself raises
:class:`~repro.common.errors.CorruptBlobError` on any mismatch.  A
corrupt entry is evicted (rotten blob included, so the recompute can
re-populate the content address), a ``<noun>.corrupt`` event is emitted,
and the caller falls back to recomputing — a memo store serves
stale-free results or nothing, never silently wrong bytes.

Only runs that reached ``DONE`` are cached.  A simulation-level failure
(a kernel panic in a boot test) is a valid, memoizable outcome; a
host-level failure (``FAILED`` / ``TIMED_OUT``) is retryable
infrastructure noise and is never served from cache.

Invalidation cascades through content: ``invalidate(token)`` accepts an
entry's key *or* another name the store says it answers to — for the run
cache an artifact content hash, which evicts every cached run that
consumed that artifact: rebuilding one disk image re-runs exactly its
dependent points and nothing else.
"""

from __future__ import annotations

import collections
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import chaos, telemetry
from repro.common.errors import (
    CorruptBlobError,
    DuplicateError,
    FaultInjectedError,
    NotFoundError,
    ValidationError,
)
from repro.common.timeutil import iso_now
from repro.art.db import ArtifactDB

#: Run statuses whose results are memoizable (terminal *and* meaningful:
#: the simulation ran to its recorded outcome on a healthy host).
CACHEABLE_STATUSES = ("done",)

Entry = Dict[str, Any]

_COUNTER_HELP = {
    "hits": "Consultations served from the store instead of recomputing",
    "misses": "Consultations that found nothing adoptable and recomputed",
    "corrupt": "Entries evicted because their blob failed hash verification",
}


class MemoStore:
    """Key → (entry document, verified blob) over an :class:`ArtifactDB`.

    A subclass names its collection, the unique key field, and the
    ``noun`` that spells its chaos point (``<noun>.get``), events
    (``<noun>.hit|miss|store|corrupt|error|invalidate``) and counters
    (``<noun>_hits|misses|corrupt_total``); which entry fields carry the
    producer's id and the hit counter's label; how ``repro cache ls``
    lists it; and how a value becomes an entry (:meth:`encode`), where
    an entry's blob is (:meth:`blob_id`), what a hit hands back
    (:meth:`decode`) and who adopted it (:meth:`tallies`).
    """

    noun: str
    collection_name: str
    key_field: str
    origin_field: str
    label_field: str
    #: ``(title, columns)`` of ``repro cache ls``; a column is ``(header,
    #: entry field, max width)`` and ``"tally"`` is the derived field.
    listing: Tuple[str, Tuple[Tuple[str, str, Optional[int]], ...]]

    def __init__(self, db: ArtifactDB):
        self.db = db
        self.collection = db.database.collection(self.collection_name)
        # One entry per key, the memo layer's no-duplicates rule: declared
        # here, so a collection comes into being with its first user.
        if self.key_field not in self.collection.index_fields():
            self.collection.create_unique_index(self.key_field)

    def decode(self, entry: Entry, payload: Optional[bytes]) -> Any:
        """What a hit hands back: the entry, unless the payload is it."""
        return entry

    def tokens(self, entry: Entry) -> Iterable[str]:
        """What :meth:`invalidate` accepts for an entry besides its key."""
        return ()

    # -------------------------------------------------------------- lookup

    def lookup(self, key: str) -> Optional[Entry]:
        """The raw entry for a key, or None."""
        return self.collection.find_one({self.key_field: key})

    def entries(self) -> List[Entry]:
        """Every entry, in insertion order."""
        return self.collection.find()

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
            entry.get(self.label_field) or "unknown" for entry in entries
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
        content-addressed store checks against its digest.  Failure modes
        degrade, never escalate: a missing blob or an injected read fault
        counts as a miss, a corrupt blob evicts the entry and counts as a
        miss — the computation always remains available as the slow path.
        A consult never writes, except for that eviction.
        """
        try:
            chaos.fire(f"{self.noun}.get", **{self.key_field: key})
            entry = self.lookup(key)
        except FaultInjectedError as error:
            return self._miss(key, "read-fault", str(error))
        if entry is None:
            return self._miss(key, "absent")
        payload, blob_id = None, self.blob_id(entry)
        if blob_id is not None:
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
                self.collection.delete_one({self.key_field: key})
                return self._miss(key, "corrupt")
            except (NotFoundError, FaultInjectedError) as error:
                return self._miss(key, "blob-missing", str(error))
        value = self.decode(entry, payload)
        self._count(
            "hits",
            **{self.label_field: entry.get(self.label_field, "unknown")},
        )
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

    # --------------------------------------------------------------- store

    def store(self, key: str, value: Any) -> bool:
        """Archive ``value`` under ``key``; True when an entry was written.

        Idempotent and first-writer-wins: the unique index decides, so a
        writer that loses a race (another experiment or store instance
        sharing the database) loses quietly — later identical work adopts
        the winner's entry rather than overwrite it.  An injected write
        fault loses the same way, reported as ``<noun>.error``: the
        value's owner has it; only the next caller's shortcut is missing.
        """
        try:
            entry = self.encode(key, value)
            if entry is None:
                return False
            self.collection.insert_one(entry)
        except DuplicateError:
            return False
        except FaultInjectedError as error:
            self._emit("error", **{self.key_field: key}, error=str(error))
            return False
        self._emit("store", **self._names(entry))
        return True

    # --------------------------------------------------------- invalidation

    def evict(self, token: str) -> int:
        """Evict by key or by another of an entry's :meth:`tokens`.

        A key evicts exactly its entry; any other token evicts every
        entry that answers to it (the run cache's artifact-hash cascade,
        the stage cache's stage name).  Only index entries go — the blobs
        belong to the documents that archived them; returns how many.
        """
        entry = self.lookup(token)
        doomed = [entry] if entry is not None else [
            candidate
            for candidate in self.entries()
            if token in self.tokens(candidate)
        ]
        for entry in doomed:
            self.collection.delete_one({self.key_field: entry[self.key_field]})
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
    """Fingerprint → archived-result index over an :class:`ArtifactDB`."""

    noun = "runcache"
    collection_name = "run_cache"
    key_field = "fingerprint"
    origin_field = "run_id"
    label_field = "kind"
    listing = (
        "RESULT CACHE",
        (("Fingerprint", "fingerprint", 12), ("Kind", "kind", None),
         ("Run", "run_id", 8), ("Hits", "tally", None),
         ("Stored", "stored_at_wall", 19)),
    )

    def encode(self, fingerprint: str, run_doc: Entry) -> Optional[Entry]:
        """A finished run's outcome as a cache entry (DONE runs only)."""
        if run_doc.get("status") not in CACHEABLE_STATUSES:
            return None
        return {
            "_id": f"cache-{fingerprint}",
            "fingerprint": fingerprint,
            "kind": run_doc.get("kind"),
            "artifact_hashes": dict(run_doc["spec"]["artifacts"]),
            "run_id": run_doc.get("_id"),
            "status": run_doc.get("status"),
            "results": dict(run_doc.get("results") or {}),
            "stored_at_wall": iso_now(),
        }

    def blob_id(self, entry: Entry) -> Optional[str]:
        return (entry.get("results") or {}).get("stats_file_id")

    def tokens(self, entry: Entry) -> Iterable[str]:
        """The content hashes of the artifacts the cached run consumed:
        invalidating one evicts every dependent entry."""
        return (entry.get("artifact_hashes") or {}).values()

    def tallies(self) -> Dict[str, int]:
        """Fingerprint → runs that adopted the entry (their documents
        say ``cached_from`` its run)."""
        return self._adopted(
            self.db.runs.find({"cache_hit": True}), "cached_from"
        )
