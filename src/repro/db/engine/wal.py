"""Write-ahead log: checksummed, length-prefixed operation records.

Every mutation a collection acknowledges is appended here *before* it is
applied in memory — the WAL is the source of truth, memory is a replayable
cache of it.  A record on disk is::

    [4-byte big-endian payload length][4-byte big-endian CRC32][payload]

where the payload is the canonical JSON of one operation document, of
five kinds: ``insert`` and ``replace`` carry a whole document, ``update``
what an update left at the paths it touched (``set``: path → value,
``unset``: paths now gone), ``delete`` an id, ``index`` a definition.
The framing makes two failure modes detectable without any out-of-band
state:

- a **torn tail** — the process died mid-append, leaving a truncated
  header or payload.  Recovery keeps every record before the tear and
  truncates the file back to the last good byte;
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
import threading
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import chaos, telemetry
from repro.common.errors import CorruptRecordError, ValidationError
from repro.common.jsonutil import loads, stable_dumps

#: Recognised durability modes, weakest to strongest.
DURABILITY_MODES = ("batch", "strict")

#: Appends between fsyncs under ``durability="batch"``.
BATCH_SIZE = 64

#: Frame header: payload length + CRC32, both unsigned big-endian.
_HEADER = struct.Struct(">II")

#: Sanity cap on a single record; a length beyond this is garbage framing,
#: not a document (documents are artifact/run metadata, not blobs).
_MAX_RECORD = 64 * 1024 * 1024


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


def encode_record(record: Dict[str, Any]) -> bytes:
    """Frame one operation document as length + CRC32 + canonical JSON."""
    payload = stable_dumps(record).encode("utf-8")
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
        apply(loads(payload.decode("utf-8")))
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
        self._lock = threading.Lock()
        self._handle = open(path, "ab")
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
            op=record.get("op", "?"),
        )
        frame = encode_record(record)
        with self._lock:
            self._handle.write(frame)
            self._since_fsync += 1
            if (
                self.durability == "strict"
                or self._since_fsync >= self.batch_size
            ):
                self._fsync_locked()
        _records_counter().inc(
            collection=self.collection, op=record.get("op", "?")
        )

    def flush(self) -> None:
        """Force every buffered byte to stable storage (any mode)."""
        with self._lock:
            if not self._handle.closed:
                self._fsync_locked()

    def _fsync_locked(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_fsync = 0
        _fsyncs_counter().inc(collection=self.collection)

    def truncate(self) -> None:
        """Empty the log, durably: its records live in the segment now."""
        with self._lock:
            self._handle.flush()
            self._handle.truncate(0)
            # An append-mode handle still writes at the (new) end; the
            # seek only keeps ``tell()``, i.e. ``size()``, honest.
            self._handle.seek(0)
            self._fsync_locked()

    # ---------------------------------------------------------------- misc

    def size(self) -> int:
        """Bytes written so far (buffered included)."""
        with self._lock:
            if self._handle.closed:
                return 0
            return self._handle.tell()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()
