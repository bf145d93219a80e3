"""A content-addressed blob store — the GridFS substitute.

gem5art uploads every artifact file (disk images, kernels, binaries) into
GridFS keyed by its hash so identical files are stored once.  This store
provides the same contract: ``put`` bytes and receive a content id
(SHA-256); ``get`` the bytes back; idempotent re-puts.

Blobs live either in memory (``root=None``) or on disk **sharded by hash
prefix**: blob ``ab12…`` lives at ``<root>/ab/ab12…``.  Content
addressing makes the first-byte fan-out free — no routing table, the id
*is* the route — and keeps directories at ~1/256th of the store, which
is what lets a million-blob archive survive ``listdir``.

:meth:`scrub` is the bit-rot police: it re-hashes every blob, moves
corrupt ones into ``<root>/quarantine/`` (so a later ``put`` of the
pristine content can repopulate the address), and reports through the
``filestore_scrub_{scanned,quarantined}_total`` counters.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional

from repro import chaos, telemetry
from repro.common.errors import (
    CorruptBlobError,
    NotFoundError,
    ValidationError,
)
from repro.common.hashing import sha256_bytes

_QUARANTINE_DIR = "quarantine"
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


def _check_digest(digest: str) -> str:
    """Reject anything that is not a SHA-256 content id.

    Every id handed out by ``put_*`` is 64 lowercase hex characters;
    nothing else may ever reach ``os.path.join`` against the store root
    (a "digest" like ``../engine/runs/wal.log`` would otherwise escape
    it — and ``delete`` would unlink whatever it lands on).
    """
    if not isinstance(digest, str) or _DIGEST_RE.match(digest) is None:
        raise ValidationError(
            f"invalid content id {digest!r}: expected 64 lowercase "
            "hex characters"
        )
    return digest


def _scanned_counter():
    return telemetry.get_metrics().counter(
        "filestore_scrub_scanned_total",
        "Blobs re-hashed by FileStore.scrub",
    )


def _quarantined_counter():
    return telemetry.get_metrics().counter(
        "filestore_scrub_quarantined_total",
        "Corrupt blobs scrub moved into quarantine",
    )


class FileStore:
    """Content-addressed storage for artifact payloads."""

    def __init__(self, root: Optional[str]):
        self.root = root
        self._memory: Dict[str, bytes] = {}
        if root is not None:
            os.makedirs(root, exist_ok=True)
            self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Reclaim tmp files stranded by a crash mid-put.

        ``put_bytes`` stages ``<digest>.tmp`` inside the shard; a
        process killed before the atomic rename leaks it.  Any
        ``*.tmp`` found in a shard at open (or during scrub) belongs to
        a dead writer and is removed.  Returns the number of files
        swept.
        """
        swept = 0
        for entry in os.listdir(self.root):
            path = os.path.join(self.root, entry)
            if os.path.isdir(path) and entry != _QUARANTINE_DIR:
                for blob in os.listdir(path):
                    if blob.endswith(".tmp"):
                        os.remove(os.path.join(path, blob))
                        swept += 1
        return swept

    # ----------------------------------------------------------------- put

    def put_bytes(self, data: bytes, filename: Optional[str] = None) -> str:
        """Store a byte string; returns its content id.  Idempotent."""
        digest = sha256_bytes(data)
        chaos.fire("filestore.put", digest=digest, filename=filename)
        if not self.exists(digest):
            if self.root is None:
                self._memory[digest] = data
            else:
                path = self._blob_path(digest)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = path + ".tmp"
                with open(tmp, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
        return digest

    # ----------------------------------------------------------------- get

    def get_bytes(self, digest: str) -> bytes:
        """Read a blob back, verifying it still hashes to its id.

        Content addressing makes integrity checkable for free: a blob
        whose bytes no longer produce ``digest`` was corrupted on disk
        (truncation, bit rot, an out-of-band overwrite) and is reported
        as :class:`CorruptBlobError` rather than silently returned.
        """
        _check_digest(digest)
        chaos.fire("filestore.get", digest=digest)
        if self.root is None:
            if digest not in self._memory:
                raise NotFoundError(f"no blob with id {digest}")
            data = self._memory[digest]
        else:
            path = self._blob_path(digest)
            if not os.path.isfile(path):
                raise NotFoundError(f"no blob with id {digest}")
            with open(path, "rb") as handle:
                data = handle.read()
        actual = sha256_bytes(data)
        if actual != digest:
            raise CorruptBlobError(
                f"blob {digest} is corrupt: content hashes to {actual} "
                f"({len(data)} bytes on disk)"
            )
        return data

    # -------------------------------------------------------------- delete

    def delete(self, digest: str) -> bool:
        """Drop a blob from the store.

        Content addressing makes deletion safe for corruption recovery:
        a blob whose bytes no longer match its digest is garbage, and
        removing it lets the next ``put_bytes`` of the pristine content
        re-populate the same address.  Returns True when a blob existed.
        """
        _check_digest(digest)
        if self.root is None:
            return self._memory.pop(digest, None) is not None
        path = self._blob_path(digest)
        if not os.path.isfile(path):
            return False
        os.remove(path)
        return True

    # --------------------------------------------------------------- scrub

    def scrub(self) -> Dict[str, object]:
        """Re-verify every blob and quarantine rot.

        A blob whose hash no longer matches is **quarantined**: moved to
        ``<root>/quarantine/<digest>`` (in-memory stores just drop it),
        freeing the address for a pristine re-put.  Stale ``*.tmp``
        files from crashed puts are also swept (as on open), reported
        as ``tmp_swept``.
        """
        scanned = 0
        quarantined: List[str] = []
        tmp_swept = 0
        if self.root is not None:
            tmp_swept = self._sweep_stale_tmp()
        for digest in self.list_ids():
            scanned += 1
            if self.root is None:
                data = self._memory.get(digest)
                if data is None:
                    continue
                if sha256_bytes(data) != digest:
                    del self._memory[digest]
                    quarantined.append(digest)
                continue
            path = self._blob_path(digest)
            if not os.path.isfile(path):
                continue
            with open(path, "rb") as handle:
                data = handle.read()
            if sha256_bytes(data) != digest:
                target = os.path.join(
                    self.root, _QUARANTINE_DIR, digest
                )
                os.makedirs(os.path.dirname(target), exist_ok=True)
                os.replace(path, target)
                quarantined.append(digest)
        _scanned_counter().inc(scanned)
        if quarantined:
            _quarantined_counter().inc(len(quarantined))
        return {
            "scanned": scanned,
            "quarantined": quarantined,
            "tmp_swept": tmp_swept,
        }

    # ---------------------------------------------------------------- query

    def exists(self, digest: str) -> bool:
        _check_digest(digest)
        if self.root is None:
            return digest in self._memory
        return os.path.isfile(self._blob_path(digest))

    def list_ids(self) -> List[str]:
        if self.root is None:
            return sorted(self._memory)
        ids = set()
        for entry in os.listdir(self.root):
            path = os.path.join(self.root, entry)
            if entry != _QUARANTINE_DIR and os.path.isdir(path):
                ids.update(
                    blob
                    for blob in os.listdir(path)
                    if not blob.endswith(".tmp")
                )
        return sorted(ids)

    def stats(self) -> Dict[str, object]:
        """Blob population and layout shape for ``repro db stats``."""
        ids = self.list_ids()
        stats: Dict[str, object] = {"blobs": len(ids), "bytes": 0, "shards": 0}
        if self.root is None:
            stats["bytes"] = sum(
                len(d) for d in self._memory.values()
            )
            return stats
        total = 0
        for digest in ids:
            path = self._blob_path(digest)
            if os.path.isfile(path):
                total += os.path.getsize(path)
        stats["bytes"] = total
        stats["shards"] = sum(
            1
            for entry in os.listdir(self.root)
            if entry != _QUARANTINE_DIR
            and os.path.isdir(os.path.join(self.root, entry))
        )
        quarantine = os.path.join(self.root, _QUARANTINE_DIR)
        stats["quarantined"] = (
            len(os.listdir(quarantine)) if os.path.isdir(quarantine) else 0
        )
        return stats

    def __contains__(self, digest: str) -> bool:
        return self.exists(digest)

    def __len__(self) -> int:
        return len(self.list_ids())

    # ---------------------------------------------------------------- paths

    def _blob_path(self, digest: str) -> str:
        """Sharded home of a blob: first-byte fan-out subdirectory."""
        return os.path.join(self.root, digest[:2], digest)
