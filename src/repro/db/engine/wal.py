"""Write-ahead log: checksummed, length-prefixed operation records.

Every mutation a collection acknowledges is appended here *before* it is
applied in memory — the WAL is the source of truth, memory is a replayable
cache of it.  A record on disk is::

    [4-byte big-endian payload length][4-byte big-endian CRC32][payload]

where the payload is ``0xFF`` and then the record's deflated bytes.  A
record is the canonical JSON of one operation document, of four kinds:
``insert`` and ``replace`` carry a whole document, ``update`` what a
``$set``/``$unset`` left at the paths it touched (``set``: path →
value, ``unset``: paths now gone), ``delete`` an id.  Indexes are not logged: the code
that owns a collection declares them each time it opens it.

Each log file is **one raw-deflate stream**: a writer session compresses
every record against the ones it wrote before, and closes each with a
``Z_SYNC_FLUSH``, so each frame holds all of its record: it inflates
behind the frames before it, needing no byte after it.  A session (an
open, a ``truncate``, an append that raised) starts a fresh deflater: a
new stream inflates correctly behind the old one, so nothing carries
over a reopen.  An append that raised also cuts the file back to where
its frame began, so the next one never lands behind half a frame.
``0xFF`` never starts UTF-8, so a tree from before deflated records
raises on a frame instead of truncating the log.  The framing makes two
failure modes detectable without any out-of-band state:

- a **torn tail** — the process died mid-append, leaving a truncated
  header or payload, or zeroed bytes (a frame without the ``0xFF``
  mark, however its CRC reads).  Recovery keeps every record before
  the tear and truncates the file back to the last good byte;
- **corruption** inside the sealed segment — the CRC no longer matches,
  which is a hard :class:`~repro.common.errors.CorruptRecordError`
  because sealed bytes were fsynced and must never change.

How eagerly appended bytes reach the platter is the ``durability`` knob:

========  ===========================================================
mode      guarantee
========  ===========================================================
strict    fsync before every append returns — an acknowledged write
          survives an immediate power cut
batch     fsync every ``BATCH_SIZE`` appends and on flush/compaction/close
========  ===========================================================
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import chaos, telemetry
from repro.common.errors import CorruptRecordError, ValidationError
from repro.common.jsonutil import record_dumps, record_loads

#: Recognised durability modes, weakest to strongest.
DURABILITY_MODES = ("batch", "strict")

#: Appends between fsyncs under ``durability="batch"``.
BATCH_SIZE = 64

#: Frame header: payload length + CRC32, both unsigned big-endian.
_HEADER = struct.Struct(">II")

#: Sanity cap on a single record; a length beyond this is garbage framing,
#: not a document (documents are artifact/run metadata, not blobs).
_MAX_RECORD = 64 * 1024 * 1024

#: First byte of a deflated payload.
DEFLATED = b"\xff"

#: The log stream's deflater: zlib level 1; raw deflate with a 32 KiB
#: window (no header, no trailer: a record ends at a sync flush, not at
#: a check); memory level 6, whose hash table and buffer are a quarter
#: of the default 8's: a cold Fig 8 sweep keeps three logs open and
#: peaks 0.20 MiB lower (``fig8-cold`` ``peak_rss_mb`` median of 10
#: pairs, 23.39 → 23.19 MiB), for 0.26 % more stored bytes.
_LEVEL = 1
_WBITS = -15
_MEM_LEVEL = 6


def _records_counter():
    return telemetry.get_metrics().counter(
        "db_wal_records_total",
        "Operation records appended to collection write-ahead logs",
    )


def _fsyncs_counter():
    return telemetry.get_metrics().counter(
        "db_wal_fsyncs_total",
        "fsync calls issued by the write-ahead log",
    )


def new_deflater():
    """The compressor of one writer session's stream."""
    return zlib.compressobj(_LEVEL, zlib.DEFLATED, _WBITS, _MEM_LEVEL)


def encode_record(record: Dict[str, Any], deflater) -> bytes:
    """Frame one operation document (stored, so ``json_copy``'d) as
    length + CRC32 + ``0xFF`` + its
    :func:`~repro.common.jsonutil.record_dumps`, deflated by the
    session's ``deflater`` and sync-flushed."""
    text = record_dumps(record).encode("utf-8")
    payload = (
        DEFLATED
        + deflater.compress(text)
        + deflater.flush(zlib.Z_SYNC_FLUSH)
    )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory so renames inside it are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still atomic
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def check_durability(mode: str) -> str:
    """``mode`` if it is a durability mode, else a ValidationError."""
    if mode not in DURABILITY_MODES:
        raise ValidationError(
            f"unknown durability {mode!r}; one of {DURABILITY_MODES}"
        )
    return mode


def read_log(
    path: str,
    tolerate_torn_tail: bool = False,
    apply: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Tuple[List[Dict[str, Any]], int, Optional[str]]:
    """Decode every record in a log file.

    Returns ``(records, good_offset, tear)`` where ``good_offset`` is the
    byte offset just past the last intact record and ``tear`` describes
    the first damaged frame (or None).  A damaged frame in a *sealed*
    file is corruption and raises; in an active WAL it is the expected
    signature of a crash mid-append, so with ``tolerate_torn_tail`` the
    good prefix is returned and the caller truncates the file.

    With ``apply`` each record is handed over as soon as it is decoded
    and ``records`` stays empty: a replay keeps only what is still live,
    not every superseded version the log holds.
    """
    records: List[Dict[str, Any]] = []
    if apply is None:
        apply = records.append
    inflater = zlib.decompressobj(_WBITS)
    offset = 0
    tear: Optional[str] = None
    with open(path, "rb") as handle:
        data = handle.read()
    total = len(data)
    while offset < total:
        header = data[offset : offset + _HEADER.size]
        if len(header) < _HEADER.size:
            tear = f"truncated header at byte {offset}"
            break
        length, crc = _HEADER.unpack(header)
        if length > _MAX_RECORD:
            tear = f"implausible record length {length} at byte {offset}"
            break
        start = offset + _HEADER.size
        payload = data[start : start + length]
        if len(payload) < length:
            tear = f"truncated payload at byte {offset}"
            break
        if zlib.crc32(payload) != crc:
            tear = f"checksum mismatch at byte {offset}"
            break
        if payload[:1] != b"\xff":  # zeroes: CRC32(b"") == 0
            tear = f"unmarked record at byte {offset}"
            break
        apply(record_loads(inflater.decompress(payload[1:]).decode("utf-8")))
        offset = start + length
    if tear is not None and not tolerate_torn_tail:
        raise CorruptRecordError(f"{path}: {tear}")
    return records, offset, tear


class WalWriter:
    """Append-only writer for one collection's active WAL file."""

    def __init__(self, path: str, durability: str, collection: str):
        self.path = path
        self.durability = check_durability(durability)
        self.batch_size = BATCH_SIZE
        self.collection = collection
        self._handle = open(path, "ab")
        self._deflater = new_deflater()
        self._since_fsync = 0

    # -------------------------------------------------------------- append

    def append(self, record: Dict[str, Any]) -> None:
        """Durably (per the mode) append one operation record.

        The chaos hook fires *before* any byte is written: a ``crash``
        rule here models a process dying between accepting a write and
        logging it, so the write must not be acknowledged (callers log
        before touching memory, making the failure atomic).
        """
        chaos.fire(
            "wal.append",
            collection=self.collection,
            op=record["op"],
        )
        start = self.size()
        try:
            self._handle.write(encode_record(record, self._deflater))
        except BaseException:
            # The file may hold part of the frame and the deflater all
            # of its record: cut the file back and start a new stream,
            # so the next append neither lands behind half a frame nor
            # refers back to a record the log does not hold.
            self._deflater = new_deflater()
            self._handle.flush()
            self._handle.truncate(start)
            self._handle.seek(start)
            raise
        self._since_fsync += 1
        if (
            self.durability == "strict"
            or self._since_fsync >= self.batch_size
        ):
            self._fsync()
        _records_counter().inc(
            collection=self.collection, op=record["op"]
        )

    def flush(self) -> None:
        """Force every buffered byte to stable storage (any mode)."""
        if not self._handle.closed:
            self._fsync()

    def _fsync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_fsync = 0
        _fsyncs_counter().inc(collection=self.collection)

    def truncate(self) -> None:
        """Empty the log, durably: its records live in the segment now."""
        self._handle.flush()
        self._handle.truncate(0)
        # An append-mode handle still writes at the (new) end; the
        # seek only keeps ``tell()``, i.e. ``size()``, honest.
        self._handle.seek(0)
        self._deflater = new_deflater()
        self._fsync()

    # ---------------------------------------------------------------- misc

    def size(self) -> int:
        """Bytes written so far (buffered included)."""
        if self._handle.closed:
            return 0
        return self._handle.tell()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()
