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
second user; the pipeline's stage cache reads its outputs blobs through
the same :func:`read_verified`.

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

Invalidation cascades through content: ``invalidate(token)`` accepts a
fingerprint *or* an artifact content hash, and an artifact hash evicts
every cached run that consumed that artifact — rebuilding one disk image
re-runs exactly its dependent points and nothing else.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import chaos, telemetry
from repro.common.errors import (
    CorruptBlobError,
    DuplicateError,
    FaultInjectedError,
    NotFoundError,
    ValidationError,
)
from repro.common.timeutil import iso_now
from repro.art.db import RUN_CACHE, ArtifactDB

#: Run statuses whose results are memoizable (terminal *and* meaningful:
#: the simulation ran to its recorded outcome on a healthy host).
CACHEABLE_STATUSES = ("done",)

Entry = Dict[str, Any]

_COUNTER_HELP = {
    "hits": "Consultations served from the store instead of recomputing",
    "misses": "Consultations that found nothing adoptable and recomputed",
    "corrupt": "Entries evicted because their blob failed hash verification",
}


def evict_blob(db: ArtifactDB, file_id: str) -> None:
    """Empty a content address so a recompute can re-populate it:
    ``put_bytes()`` is dedup-by-digest, so while rotten bytes sit at an
    address re-archiving the pristine content is skipped."""
    db.delete_file(file_id)


def read_verified(
    db: ArtifactDB, file_id: str
) -> Tuple[Optional[bytes], str, str]:
    """Read a blob the file store vouches for, or say why not.

    Returns ``(payload, "", "")``, or ``(None, reason, detail)`` with
    reason ``"blob-missing"`` or ``"corrupt"`` — the bytes no longer
    match their digest and have been evicted, so that the reader's
    fallback recompute heals the address.
    """
    try:
        # get_bytes() hashes what it reads and raises CorruptBlobError
        # itself on mismatch.
        return db.download_file(file_id), "", ""
    except CorruptBlobError as error:
        evict_blob(db, file_id)
        return None, "corrupt", str(error)
    except (NotFoundError, FaultInjectedError) as error:
        return None, "blob-missing", str(error)


class MemoStore:
    """Key → (entry document, verified blob) over an :class:`ArtifactDB`.

    A subclass names its collection, the unique key field, and the
    ``noun`` that spells its chaos point (``<noun>.get``), events
    (``<noun>.hit|miss|store|corrupt|error``) and counters
    (``<noun>_hits|misses|corrupt_total``); which entry fields carry the
    producer's id, the adoption tally (and what :meth:`stats` calls it)
    and the hit counter's label; and how a value becomes an entry
    (:meth:`encode`), where an entry's blob is (:meth:`blob_id`) and
    what a hit hands back (:meth:`decode`).
    """

    noun: str
    collection_name: str
    key_field: str
    origin_field: str
    tally_field: str
    tally_stat: str
    label_field: str

    def __init__(self, db: ArtifactDB):
        self.db = db
        self.collection = db.database.collection(self.collection_name)

    def decode(self, entry: Entry, payload: Optional[bytes]) -> Any:
        """What a hit hands back: the entry, unless the payload is it."""
        return entry

    # -------------------------------------------------------------- lookup

    def lookup(self, key: str) -> Optional[Entry]:
        """The raw entry for a key, or None."""
        return self.collection.find_one({self.key_field: key})

    def entries(self) -> List[Entry]:
        """Every entry, in insertion order."""
        return self.collection.find()

    def stats(self) -> Entry:
        """Summary counts (``repro cache|ckpt stats``): entries, their
        summed adoption tally, and entries per label."""
        entries = self.entries()
        by_label: Dict[str, int] = {}
        for entry in entries:
            label = entry.get(self.label_field) or "unknown"
            by_label[label] = by_label.get(label, 0) + 1
        tally = sum(int(entry.get(self.tally_field) or 0) for entry in entries)
        return {
            "entries": len(entries),
            self.tally_stat: tally,
            f"by_{self.label_field}": by_label,
        }

    def consult(self, key: str) -> Any:
        """Look up and *verify* an entry; None means recompute.

        The verification downloads the entry's blob, which the
        content-addressed store checks against its digest.  Failure modes
        degrade, never escalate: a missing blob or an injected read fault
        counts as a miss, a corrupt blob evicts the entry and counts as a
        miss — the computation always remains available as the slow path.
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
            payload, reason, detail = read_verified(self.db, blob_id)
            if reason == "corrupt":
                self._count("corrupt")
                self._emit("corrupt", **self._names(entry), error=detail)
                # read_verified() already emptied the blob's address.
                self.collection.delete_one({self.key_field: key})
                return self._miss(key, reason)
            if payload is None:
                return self._miss(key, reason, detail)
        value = self.decode(entry, payload)
        self._count(
            "hits",
            **{self.label_field: entry.get(self.label_field, "unknown")},
        )
        self.collection.update_one(
            {self.key_field: key}, {"$inc": {self.tally_field: 1}}
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

    def _miss(self, key: str, reason: str, error: str = None) -> None:
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
        the winner's entry rather than overwrite it.
        """
        entry = self.encode(key, value)
        if entry is None:
            return False
        try:
            self.collection.insert_one(entry)
        except DuplicateError:
            return False
        self._emit("store", **self._names(entry))
        return True


class RunCache(MemoStore):
    """Fingerprint → archived-result index over an :class:`ArtifactDB`."""

    noun = "runcache"
    collection_name = RUN_CACHE
    key_field = "fingerprint"
    origin_field = "run_id"
    tally_field, tally_stat = "hits", "adoptions"
    label_field = "kind"

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
            "hits": 0,
            "stored_at_wall": iso_now(),
        }

    def blob_id(self, entry: Entry) -> Optional[str]:
        return (entry.get("results") or {}).get("stats_file_id")

    # --------------------------------------------------------- invalidation

    def invalidate(self, token: str) -> int:
        """Evict by fingerprint or by artifact content hash (cascading).

        A fingerprint evicts exactly its entry.  An artifact hash evicts
        every cached run whose spec consumed that artifact — the
        dependency cascade that makes "I rebuilt the disk image" re-run
        only the image's dependents.  A token that matches nothing
        exactly is retried as a git-style prefix (``cache ls`` shows
        abbreviated fingerprints); an ambiguous prefix raises
        :class:`~repro.common.errors.ValidationError` rather than guess.
        Only index entries go: the stats blobs still belong to the run
        documents that archived them.  Returns the number of entries
        evicted.
        """
        entry = self.lookup(token)
        if entry is not None:
            doomed, how = [entry], {"by": "fingerprint"}
        else:
            doomed = [
                candidate
                for candidate in self.entries()
                if token in (candidate.get("artifact_hashes") or {}).values()
            ]
            how = {"by": "artifact", "artifact_hash": token}
        for entry in doomed:
            self.collection.delete_one({"fingerprint": entry["fingerprint"]})
            self._emit("invalidate", fingerprint=entry["fingerprint"], **how)
        if doomed:
            return len(doomed)
        full = self._expand_prefix(token)
        return self.invalidate(full) if full is not None else 0

    def _expand_prefix(self, prefix: str) -> Optional[str]:
        """Resolve an abbreviated fingerprint / artifact hash, or None.

        Only consulted after exact matching fails, so a full token can
        never be shadowed by a longer one it happens to prefix.
        """
        if not prefix:
            return None
        matches = set()
        for entry in self.entries():
            if entry["fingerprint"].startswith(prefix):
                matches.add(entry["fingerprint"])
            for value in (entry.get("artifact_hashes") or {}).values():
                if isinstance(value, str) and value.startswith(prefix):
                    matches.add(value)
        if len(matches) > 1:
            raise ValidationError(
                f"ambiguous prefix {prefix!r} matches "
                f"{len(matches)} cache tokens; use more characters"
            )
        return matches.pop() if matches else None
