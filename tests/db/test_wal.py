"""Tests for the write-ahead log: framing, checksums, torn tails, deflate."""

import os
import struct
import types
import zlib

import pytest

from repro import telemetry
from repro.common.errors import CorruptRecordError, ValidationError
from repro.db import Database
from repro.db.engine.wal import (
    DEFLATED,
    DURABILITY_MODES,
    WalWriter,
    encode_record,
    new_deflater,
    read_log,
)


def write_records(path, records, durability="strict"):
    writer = WalWriter(path, durability=durability, collection="t")
    for record in records:
        writer.append(record)
    writer.close()


def test_roundtrip(tmp_path):
    path = str(tmp_path / "wal.log")
    records = [
        {"op": "insert", "doc": {"_id": "a", "n": 1}},
        {"op": "delete", "id": "a"},
        {"op": "update", "id": "a", "set": {"n": 2}, "unset": []},
    ]
    write_records(path, records)
    decoded, offset, tear = read_log(path)
    assert decoded == records
    assert offset == os.path.getsize(path)
    assert tear is None
    payload = open(path, "rb").read()[8:]  # 0xFF: older trees refuse it
    assert payload[:1] == DEFLATED
    with pytest.raises(UnicodeDecodeError):
        payload.decode("utf-8")


def test_roundtrip_preserves_special_types(tmp_path):
    import datetime

    path = str(tmp_path / "wal.log")
    doc = {
        "_id": "x",
        "when": datetime.datetime(2021, 3, 1, 12, 30),
        "blob": b"\x00\x01",
        "tags": {"a", "b"},
    }
    write_records(path, [{"op": "insert", "doc": doc}])
    decoded, _, _ = read_log(path)
    assert decoded[0]["doc"] == doc


def test_torn_header_is_tolerated(tmp_path):
    path = str(tmp_path / "wal.log")
    write_records(path, [{"op": "insert", "doc": {"_id": "a"}}])
    good_size = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(b"\x00\x00")  # half a header
    records, offset, tear = read_log(path, tolerate_torn_tail=True)
    assert len(records) == 1
    assert offset == good_size
    assert "truncated header" in tear


def test_torn_payload_is_tolerated(tmp_path):
    path = str(tmp_path / "wal.log")
    write_records(path, [{"op": "insert", "doc": {"_id": "a"}}])
    good_size = os.path.getsize(path)
    record = {"op": "insert", "doc": {"_id": "b"}}
    frame = encode_record(record, new_deflater())
    with open(path, "ab") as handle:
        handle.write(frame[:-3])  # crash mid-payload
    records, offset, tear = read_log(path, tolerate_torn_tail=True)
    assert [r["doc"]["_id"] for r in records if "doc" in r] == ["a"]
    assert offset == good_size
    assert "truncated payload" in tear


def test_bitflip_fails_checksum(tmp_path):
    path = str(tmp_path / "wal.log")
    write_records(
        path,
        [
            {"op": "insert", "doc": {"_id": "a", "v": "AAAA"}},
            {"op": "insert", "doc": {"_id": "b", "v": "BBBB"}},
        ],
    )
    data = bytearray(open(path, "rb").read())
    data[8 + 2] ^= 0x01  # flip a bit inside record 1's deflated bytes
    with open(path, "wb") as handle:
        handle.write(data)
    records, offset, tear = read_log(path, tolerate_torn_tail=True)
    assert records == []  # damage in record 1 stops replay at byte 0
    assert offset == 0
    assert "checksum mismatch" in tear


def test_sealed_log_damage_raises(tmp_path):
    path = str(tmp_path / "segment.seg")
    write_records(path, [{"op": "insert", "doc": {"_id": "a"}}])
    with open(path, "ab") as handle:
        handle.write(b"garbage")
    with pytest.raises(CorruptRecordError):
        read_log(path)  # strict mode: sealed bytes must be intact


def test_implausible_length_is_a_tear(tmp_path):
    """So is a frame whose CRC holds over a payload without the 0xFF
    mark: eight zero bytes are an empty payload and CRC32(b"") == 0."""
    path = str(tmp_path / "wal.log")
    for frame, expected in (
        (struct.pack(">II", 1 << 30, zlib.crc32(b"")), "implausible"),
        (bytes(8), "unmarked record at byte 0"),
    ):
        with open(path, "wb") as handle:
            handle.write(frame)
        records, offset, tear = read_log(path, tolerate_torn_tail=True)
        assert records == [] and offset == 0
        assert expected in tear
        with pytest.raises(CorruptRecordError, match=expected):
            read_log(path)


def test_durability_knob_validated(tmp_path):
    with pytest.raises(ValidationError):
        WalWriter(str(tmp_path / "w.log"), "paranoid", "t")
    with pytest.raises(ValidationError):
        WalWriter(str(tmp_path / "w.log"), "none", "t")
    assert DURABILITY_MODES == ("batch", "strict")


def test_batch_mode_fsyncs_on_flush(tmp_path):
    path = str(tmp_path / "wal.log")
    writer = WalWriter(path, durability="batch", collection="t")
    with telemetry.session() as session:
        fsyncs = session.metrics.counter("db_wal_fsyncs_total")
        for _ in range(writer.batch_size - 1):
            writer.append({"op": "insert", "doc": {"_id": "a"}})
        assert fsyncs.value(collection="t") == 0
        writer.flush()
        assert fsyncs.value(collection="t") == 1
        assert session.metrics.counter("db_wal_records_total").value(
            collection="t", op="insert") == writer.batch_size - 1
    records, _, tear = read_log(path, tolerate_torn_tail=True)
    assert len(records) == writer.batch_size - 1 and tear is None
    writer.close()


def test_size_tracks_appends(tmp_path):
    writer = WalWriter(str(tmp_path / "wal.log"), "batch", "t")
    assert writer.size() == 0
    writer.append({"op": "insert", "doc": {"_id": "a"}})
    assert writer.size() > 0
    writer.close()
    assert writer.size() == 0  # a closed log reports no bytes


DOCS = [{"_id": f"d{n}", "v": "x" * 40} for n in range(4)]


def test_a_tear_anywhere_in_the_last_deflated_frame_heals(tmp_path):
    """A cut at any byte of one session's last frame heals on open, and a
    new session's appends read back behind every record before it."""
    Database("t", root=str(tmp_path / "db")).close()  # stamped
    wal = tmp_path / "db" / "engine" / "c" / "wal.log"
    wal.parent.mkdir()
    writer = WalWriter(str(wal), "strict", "c")
    for doc in DOCS:
        last = writer.size()
        writer.append({"op": "insert", "doc": doc})
    writer.close()
    whole, healed = wal.read_bytes(), DOCS[:3]
    for cut in range(last, len(whole)):
        wal.write_bytes(whole[:cut])
        with Database("t", root=str(tmp_path / "db")) as db:
            assert db.recovery_report()["c"]["truncated_bytes"] == cut - last
            db["c"].insert_one({"_id": "probe"})
        with Database("t", root=str(tmp_path / "db")) as db:
            assert db["c"].find() == healed + [{"_id": "probe"}]


@pytest.mark.parametrize("share", [0, 0.5])
def test_an_append_that_raised_is_cut_off(tmp_path, share):
    """A write that put down ``share`` of its frame and raised is cut off:
    the next append lands behind the last whole frame, in a new stream."""
    path = str(tmp_path / "wal.log")
    records = [{"op": "insert", "doc": doc} for doc in DOCS[:3]]
    writer = WalWriter(path, "strict", "t")
    writer.append(records[0])
    handle, good = writer._handle, os.path.getsize(path)

    def full(data):
        handle.write(data[: int(len(data) * share)])
        raise OSError("no space left on device")

    writer._handle = types.SimpleNamespace(write=full, closed=False, **{
        n: getattr(handle, n) for n in "flush truncate seek tell".split()
    })
    with pytest.raises(OSError):
        writer.append(records[1])
    writer._handle = handle
    assert os.path.getsize(path) == writer.size() == good
    for record in records[1:]:
        writer.append(record)
    writer.close()
    assert read_log(path)[0] == records
