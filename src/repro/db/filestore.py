"""A content-addressed blob store — the GridFS substitute.

gem5art uploads every artifact file (disk images, kernels, binaries) into
GridFS keyed by its hash so identical files are stored once.  This store
provides the same contract: ``put`` bytes and receive a content id
(SHA-256 of the bytes); ``get`` the bytes back; idempotent re-puts.

Blobs live either in memory (``root=None``) or on disk in **one
append-only pack file**, ``<root>/pack``, as GridFS keeps blobs inside
the database rather than as one OS file each.  A record is::

    [32-byte raw SHA-256][8-byte big-endian length][payload]

A new blob is deflated (``zlib`` level 1) and kept that way when that is
shorter; bit 63 of the length (``_DEFLATED``) then says so, and the rest
of it is the stored payload's length.  A record without the flag is raw:
a blob that does not deflate.  Most new blobs are *deltas*
(``_packer``): ``_DELTA``, a base blob's offset and a zlib stream with
the base as its preset dictionary.  A delete appends a *tombstone*: the
digest with length ``_TOMBSTONE`` (all 64 bits set) and no payload.
Opening the store walks the record headers — never the payloads — into a
``digest → (offset, stored length, deflated)`` index; a torn tail (a
process killed mid-append) is truncated back to the last whole record,
as the WAL's is.  An append is one unbuffered ``os.writev`` call, so a
forked process inherits no pending bytes.

A read inflates a deflated payload (a delta's base first) and re-hashes
the result; a payload that does not inflate is handed back as stored, so
its hash fails and rot is reported the same way for every record.

Under ``durability="strict"`` a put fsyncs the pack before it returns,
so a ``done`` run document never names a blob that is not on disk;
under ``batch`` :meth:`flush` (``Database.save()`` / ``close()``) does.

:meth:`scrub` is the bit-rot police: it re-hashes every blob, copies
corrupt ones into ``<root>/quarantine/<digest>`` and tombstones them (so
a later ``put`` of the pristine content can repopulate the address),
and reports through the ``filestore_scrub_{scanned,quarantined}_total``
counters.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from repro import chaos, telemetry
from repro.common.errors import (
    CorruptBlobError,
    NotFoundError,
    ValidationError,
)
from repro.common.hashing import sha256_bytes
from repro.db.engine.wal import check_durability

PACK_NAME = "pack"
_QUARANTINE_DIR = "quarantine"
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")

#: Record header: raw SHA-256 + stored payload length, big-endian.
HEADER = struct.Struct(">32sQ")

#: The length a tombstone carries: no payload can be this long.
_TOMBSTONE = (1 << 64) - 1

#: The length bit that marks a deflated payload; a tombstone has it set
#: too, so test for ``_TOMBSTONE`` first.
_DEFLATED = 1 << 63

#: First byte of a delta's payload; a zlib stream never starts with it.
_DELTA = b"\xff"
#: Blobs per base, itself included, and a base's most bytes (the window).
BASE_EVERY = 8
BASE_CAP = 32 * 1024

#: ``(digest, payload offset, stored length, deflated)`` of one record;
#: the length is None for a tombstone.
Record = Tuple[str, int, Optional[int], bool]


def _check_digest(digest: str) -> None:
    """Reject anything that is not a SHA-256 content id.

    Every id handed out by ``put_*`` is 64 lowercase hex characters;
    anything else — a path such as ``../engine/runs/wal.log`` passed
    where an id belongs — is the caller's bug and is reported as one,
    not answered "absent".  The id also names scrub's quarantine copy,
    so it must never carry a path separator.
    """
    if not isinstance(digest, str) or _DIGEST_RE.match(digest) is None:
        raise ValidationError(
            f"invalid content id {digest!r}: expected 64 lowercase "
            "hex characters"
        )


def read_pack(fd: int) -> Tuple[List[Record], int]:
    """Walk a pack's record headers.

    Returns ``(records, end)``: one ``(digest, payload offset, stored
    length, deflated)`` per record in file order, the length None for a
    tombstone, and the byte just past the last whole record — short of
    the file's size when its tail is torn.  Payloads are skipped, not
    read.
    """
    size = os.fstat(fd).st_size
    records: List[Record] = []
    offset = 0
    while offset + HEADER.size <= size:
        raw, length = HEADER.unpack(os.pread(fd, HEADER.size, offset))
        start = offset + HEADER.size
        if length == _TOMBSTONE:
            records.append((raw.hex(), start, None, False))
            offset = start
            continue
        deflated = bool(length & _DEFLATED)
        length &= ~_DEFLATED
        if start + length > size:
            break
        records.append((raw.hex(), start, length, deflated))
        offset = start + length
    return records, offset


def _scanned_counter():
    return telemetry.get_metrics().counter(
        "filestore_scrub_scanned_total",
        "Blobs re-hashed by FileStore.scrub",
    )


def _quarantined_counter():
    return telemetry.get_metrics().counter(
        "filestore_scrub_quarantined_total",
        "Corrupt blobs scrub copied into quarantine and tombstoned",
    )


def _torn_counter():
    return telemetry.get_metrics().counter(
        "filestore_recovery_truncated_bytes_total",
        "Torn pack tail bytes discarded when a FileStore opens",
    )


class FileStore:
    """Content-addressed storage for artifact payloads."""

    def __init__(self, root: Optional[str], durability: str = "batch"):
        self.root = root
        self.durability = check_durability(durability)
        self._memory: Dict[str, bytes] = {}
        #: digest → (payload offset, stored length, deflated) of its
        #: live pack record.
        self._index: Dict[str, Tuple[int, int, bool]] = {}
        self._end = 0  # the pack's size: where the next record goes
        self._unsynced = False
        self._tail: List[Record] = []
        self._base: Optional[Tuple[int, bytes]] = None
        self._deltas = 0
        self._cached: Tuple[Optional[int], bytes] = (None, b"")  # last base
        if root is not None:
            os.makedirs(root, exist_ok=True)
            self._pack = open(
                os.path.join(root, PACK_NAME), "a+b", buffering=0
            )
            self._load()

    def _load(self) -> None:
        """Index the pack and cut a torn tail back to the last whole
        record (the signature of a crash mid-append)."""
        fd = self._pack.fileno()
        records, end = read_pack(fd)
        for digest, start, length, deflated in records:
            if length is None:
                self._index.pop(digest, None)
            else:
                self._index[digest] = (start, length, deflated)
        self._tail = [record for record in records if record[3]]
        torn = os.fstat(fd).st_size - end
        if torn:
            os.ftruncate(fd, end)
            os.fsync(fd)
            _torn_counter().inc(torn)
        self._end = end

    def _append(self, digest: str, length: int, payload: bytes = b"") -> int:
        """Append one record whose header carries ``length`` (flag bits
        included); returns its payload's offset.

        A failed or short write is cut off again, so the next append
        does not land behind half a record.
        """
        header = HEADER.pack(bytes.fromhex(digest), length)
        fd = self._pack.fileno()
        try:
            written = os.writev(fd, [header, payload])
            if written != len(header) + len(payload):
                raise OSError(f"short write to {self._pack.name}")
        except OSError:
            os.ftruncate(fd, self._end)
            raise
        start = self._end + HEADER.size
        self._end = start + len(payload)
        self._unsynced = True
        if self.durability == "strict":
            self.flush()
        return start

    # ----------------------------------------------------------------- put

    def put_bytes(self, data: bytes) -> str:
        """Store a byte string; returns its content id.  Idempotent: a
        digest already stored is neither deflated nor written again."""
        digest = sha256_bytes(data)
        chaos.fire("filestore.put", digest=digest)
        if self.root is None:
            self._memory.setdefault(digest, data)
        elif digest not in self._index:
            head, packer = self._packer()
            packed = head + packer.compress(data) + packer.flush()
            deflated = len(packed) < len(data)
            payload, flag = (packed, _DEFLATED) if deflated else (data, 0)
            start = self._append(digest, len(payload) | flag, payload)
            self._index[digest] = (start, len(payload), deflated)
            if deflated and head:
                self._deltas += 1
            elif deflated and len(data) <= BASE_CAP:
                self._base, self._deltas = (start, data), 0
        return digest

    def _packer(self):
        """A new blob's payload head and deflater, a delta's if there is a
        base.  The base is pack state: a session's first put walks the
        deflated ``_tail`` back to the newest plain record of at most
        ``BASE_CAP`` bytes (counting ``_deltas``), live and intact."""
        fd = self._pack.fileno()
        for digest, start, length, _ in reversed(self._tail):
            payload = os.pread(fd, length, start)
            if payload[:1] == _DELTA:
                self._deltas += 1
                continue
            try:
                data = zlib.decompressobj().decompress(payload, BASE_CAP + 1)
            except zlib.error:
                break
            if len(data) <= BASE_CAP:
                if (self._index.get(digest, (None,))[0] == start
                        and sha256_bytes(data) == digest):
                    self._base = (start, data)
                break
        self._tail = []
        if self._base is None or self._deltas >= BASE_EVERY - 1:
            return b"", zlib.compressobj(1)
        head = _DELTA + self._base[0].to_bytes(8, "big")
        return head, zlib.compressobj(1, zdict=self._base[1])

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
        data = self._read(digest)
        if data is None:
            raise NotFoundError(f"no blob with id {digest}")
        actual = sha256_bytes(data)
        if actual != digest:
            stored = len(data) if self.root is None else self._index[digest][1]
            raise CorruptBlobError(
                f"blob {digest} is corrupt: content hashes to {actual} "
                f"({len(data)} bytes read back, {stored} stored)"
            )
        return data

    def _read(self, digest: str) -> Optional[bytes]:
        """A live blob's bytes, inflated but unverified; None if absent.

        A deflated payload that no longer inflates comes back as stored,
        for the caller's hash check to reject.
        """
        if self.root is None:
            return self._memory.get(digest)
        where = self._index.get(digest)
        if where is None:
            return None
        start, length, deflated = where
        payload = os.pread(self._pack.fileno(), length, start)
        if deflated:
            try:
                return self._inflate(payload, start)
            except zlib.error:
                pass
        return payload

    def _inflate(self, payload: bytes, start: int) -> bytes:
        """A deflated payload's bytes: a delta's base is inflated first."""
        if payload[:1] != _DELTA:
            return zlib.decompress(payload)
        base = int.from_bytes(payload[1:9], "big")
        if self._cached[0] != base:
            if not HEADER.size <= base < start:
                raise zlib.error(f"no base record at {base}")
            fd = self._pack.fileno()
            head = os.pread(fd, HEADER.size, base - HEADER.size)
            length = min(HEADER.unpack(head)[1] & ~_DEFLATED, start - base)
            self._cached = (base, zlib.decompress(os.pread(fd, length, base)))
        # A truncated delta inflates to a prefix the hash check rejects.
        inflater = zlib.decompressobj(zdict=self._cached[1])
        return inflater.decompress(payload[9:])

    # -------------------------------------------------------------- delete

    def delete(self, digest: str) -> bool:
        """Drop a blob from the store.

        Content addressing makes deletion safe for corruption recovery:
        a blob whose bytes no longer match its digest is garbage, and
        removing it lets the next ``put_bytes`` of the pristine content
        re-populate the same address.  On disk this appends a
        tombstone; the dead bytes stay in the pack.  Returns True when
        a blob existed.
        """
        _check_digest(digest)
        if self.root is None:
            return self._memory.pop(digest, None) is not None
        if digest not in self._index:
            return False
        self._append(digest, _TOMBSTONE)
        if self._base and self._base[0] == self._index[digest][0]:
            self._base = None  # no usable base: the next blob is one
        del self._index[digest]
        return True

    # --------------------------------------------------------------- scrub

    def scrub(self) -> Dict[str, object]:
        """Re-verify every blob and quarantine rot.

        A blob whose hash no longer matches is **quarantined**: its
        bytes are copied to ``<root>/quarantine/<digest>`` and the blob
        is deleted (in-memory stores just drop it), freeing the address
        for a pristine re-put.
        """
        scanned = 0
        quarantined: List[str] = []
        self._cached = (None, b"")  # a cached base would hide its rot
        for digest in self.list_ids():
            scanned += 1
            data = self._read(digest)
            if sha256_bytes(data) == digest:
                continue
            if self.root is not None:
                target = os.path.join(self.root, _QUARANTINE_DIR, digest)
                os.makedirs(os.path.dirname(target), exist_ok=True)
                with open(target, "wb") as handle:
                    handle.write(data)
            self.delete(digest)
            quarantined.append(digest)
        _scanned_counter().inc(scanned)
        if quarantined:
            _quarantined_counter().inc(len(quarantined))
        return {"scanned": scanned, "quarantined": quarantined}

    # ---------------------------------------------------------- durability

    def flush(self) -> None:
        """Force every appended record to stable storage."""
        if self._unsynced:
            os.fsync(self._pack.fileno())
            self._unsynced = False

    def close(self) -> None:
        """Flush and close the pack."""
        if self.root is not None and not self._pack.closed:
            self.flush()
            self._pack.close()

    # ---------------------------------------------------------------- query

    def exists(self, digest: str) -> bool:
        _check_digest(digest)
        if self.root is None:
            return digest in self._memory
        return digest in self._index

    def list_ids(self) -> List[str]:
        return sorted(self._memory if self.root is None else self._index)

    def stats(self) -> Dict[str, object]:
        """Blob population for ``repro db stats``: ``bytes`` counts live
        payloads as stored; on disk ``deflated`` is how many of them are
        deflated (``deltas`` as deltas), ``pack_bytes`` the pack's size and
        ``dead_bytes`` the part of it deleted blobs and tombstones hold."""
        if self.root is None:
            return {
                "blobs": len(self._memory),
                "bytes": sum(len(d) for d in self._memory.values()),
            }
        live = sum(length for _, length, _ in self._index.values())
        quarantine = os.path.join(self.root, _QUARANTINE_DIR)
        return {
            "blobs": len(self._index),
            "bytes": live,
            "deflated": sum(
                deflated for _, _, deflated in self._index.values()
            ),
            "deltas": sum(
                os.pread(self._pack.fileno(), 1, start) == _DELTA
                for start, _, deflated in self._index.values() if deflated
            ),
            "pack_bytes": self._end,
            "dead_bytes": self._end - live - HEADER.size * len(self._index),
            "quarantined": (
                len(os.listdir(quarantine))
                if os.path.isdir(quarantine) else 0
            ),
        }

    def __contains__(self, digest: str) -> bool:
        return self.exists(digest)

    def __len__(self) -> int:
        return len(self.list_ids())
