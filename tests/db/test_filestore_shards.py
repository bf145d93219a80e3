"""Tests for FileStore sharding, streaming ingest, and scrub."""

import os

import pytest

from repro import telemetry
from repro.common.errors import ValidationError
from repro.db.filestore import FileStore


# ---------------------------------------------------------------- layout


def test_blobs_land_in_hash_prefix_shards(tmp_path):
    store = FileStore(str(tmp_path))
    digest = store.put_bytes(b"sharded payload")
    assert os.path.isfile(tmp_path / digest[:2] / digest)
    assert not os.path.exists(tmp_path / digest)  # not flat
    assert store.get_bytes(digest) == b"sharded payload"


def test_stats_report_shard_fanout(tmp_path):
    store = FileStore(str(tmp_path))
    digests = {store.put_bytes(bytes([i]) * 10) for i in range(20)}
    stats = store.stats()
    assert stats["blobs"] == len(digests)
    assert stats["bytes"] == 10 * len(digests)
    assert 1 <= stats["shards"] <= len(digests)
    assert stats["quarantined"] == 0


# ------------------------------------------------------------- validation


def test_digest_validation_blocks_path_traversal(tmp_path):
    store = FileStore(str(tmp_path))
    evil = "../engine/runs/wal.log"
    for call in (store.get_bytes, store.delete, store.exists):
        with pytest.raises(ValidationError):
            call(evil)


def test_digest_validation_requires_sha256_hex(tmp_path):
    store = FileStore(str(tmp_path))
    for bogus in ("abc", "G" * 64, "A" * 64, "0" * 63, ""):
        with pytest.raises(ValidationError):
            store.get_bytes(bogus)
    memory = FileStore(None)
    with pytest.raises(ValidationError):
        memory.exists("../../etc/passwd")


# ------------------------------------------------------------- tmp sweep


def test_stale_tmp_files_swept_on_open(tmp_path):
    store = FileStore(str(tmp_path))
    digest = store.put_bytes(b"keep me")
    # What a process killed mid-put leaves behind.
    (tmp_path / digest[:2] / "deadbeef.tmp").write_bytes(b"partial")
    reopened = FileStore(str(tmp_path))
    assert not (tmp_path / digest[:2] / "deadbeef.tmp").exists()
    assert reopened.get_bytes(digest) == b"keep me"


def test_scrub_sweeps_stale_tmp(tmp_path):
    store = FileStore(str(tmp_path))
    good = store.put_bytes(b"healthy")
    stale = tmp_path / good[:2] / "deadbeef.tmp"
    stale.write_bytes(b"junk")
    report = store.scrub()
    assert report["tmp_swept"] == 1
    assert not stale.exists()
    assert store.get_bytes(good) == b"healthy"


# ------------------------------------------------------------------ scrub


def test_scrub_clean_store(tmp_path):
    store = FileStore(str(tmp_path))
    store.put_bytes(b"one")
    store.put_bytes(b"two")
    report = store.scrub()
    assert report["scanned"] == 2
    assert report["quarantined"] == []


def test_scrub_quarantines_corrupt_blob(tmp_path):
    store = FileStore(str(tmp_path))
    good = store.put_bytes(b"stays pristine")
    bad = store.put_bytes(b"will rot")
    (tmp_path / bad[:2] / bad).write_bytes(b"bit rot")
    report = store.scrub()
    assert report["quarantined"] == [bad]
    assert not store.exists(bad)
    assert os.path.isfile(tmp_path / "quarantine" / bad)
    assert store.get_bytes(good) == b"stays pristine"
    # The address is free again: a pristine re-put repopulates it.
    assert store.put_bytes(b"will rot") == bad
    assert store.get_bytes(bad) == b"will rot"


def test_scrub_memory_store_drops_corruption():
    store = FileStore(None)
    digest = store.put_bytes(b"original")
    store._memory[digest] = b"tampered"
    report = store.scrub()
    assert report["quarantined"] == [digest]
    assert not store.exists(digest)


def test_scrub_increments_counters(tmp_path):
    store = FileStore(str(tmp_path))
    bad = store.put_bytes(b"doomed")
    (tmp_path / bad[:2] / bad).write_bytes(b"xx")
    store.put_bytes(b"healthy")
    with telemetry.session() as session:
        store.scrub()
        metrics = session.metrics
        assert metrics.counter("filestore_scrub_scanned_total").value() == 2
        assert (
            metrics.counter("filestore_scrub_quarantined_total").value() == 1
        )
