"""Tests for the write-ahead log: framing, checksums, torn tails."""

import os
import struct
import zlib

import pytest

from repro.common.errors import CorruptRecordError, ValidationError
from repro.db.engine.wal import (
    DURABILITY_MODES,
    WalWriter,
    encode_record,
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
        {"op": "index", "field": "n", "unique": False},
    ]
    write_records(path, records)
    decoded, offset, tear = read_log(path)
    assert decoded == records
    assert offset == os.path.getsize(path)
    assert tear is None


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
    frame = encode_record({"op": "insert", "doc": {"_id": "b"}})
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
    data[data.index(b"AAAA")] ^= 0x01  # flip a bit inside record 1
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
    path = str(tmp_path / "wal.log")
    with open(path, "wb") as handle:
        handle.write(struct.pack(">II", 1 << 30, zlib.crc32(b"")))
    records, offset, tear = read_log(path, tolerate_torn_tail=True)
    assert records == [] and offset == 0
    assert "implausible" in tear


def test_durability_knob_validated(tmp_path):
    with pytest.raises(ValidationError):
        WalWriter(str(tmp_path / "w.log"), "paranoid", "t")
    with pytest.raises(ValidationError):
        WalWriter(str(tmp_path / "w.log"), "none", "t")
    assert DURABILITY_MODES == ("batch", "strict")


def test_batch_mode_fsyncs_on_flush(tmp_path):
    path = str(tmp_path / "wal.log")
    writer = WalWriter(path, durability="batch", collection="t")
    writer.append({"op": "insert", "doc": {"_id": "a"}})
    writer.flush()
    records, _, tear = read_log(path, tolerate_torn_tail=True)
    assert len(records) == 1 and tear is None
    writer.close()


def test_size_tracks_appends(tmp_path):
    writer = WalWriter(str(tmp_path / "wal.log"), "batch", "t")
    assert writer.size() == 0
    writer.append({"op": "insert", "doc": {"_id": "a"}})
    assert writer.size() > 0
    writer.close()
