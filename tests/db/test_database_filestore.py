"""Tests for Database persistence and the FileStore blob store."""

import datetime

import pytest

from repro.common.errors import (
    CorruptBlobError,
    NotFoundError,
    ValidationError,
)
from repro.db import connect
from repro.db.database import Database
from repro.db.filestore import FileStore
from tests.helpers import insert_many


def test_memory_database_basic():
    db = Database("test")
    db["runs"].insert_one({"name": "run1"})
    assert db["runs"].count() == 1
    assert db.describe() == {"runs": 1}


def test_database_requires_name():
    with pytest.raises(ValidationError):
        Database("")


def test_save_and_reload(tmp_path):
    root = str(tmp_path / "dbdir")
    db = Database("test", root=root)
    db["artifacts"].insert_one({"_id": "a1", "name": "gem5", "v": 20})
    db["runs"].insert_one(
        {"_id": "r1", "when": datetime.datetime(2021, 3, 1)}
    )
    db.save()

    reloaded = Database("test", root=root)
    assert reloaded["artifacts"].find_one({"_id": "a1"})["name"] == "gem5"
    assert reloaded["runs"].find_one({"_id": "r1"})["when"] == (
        datetime.datetime(2021, 3, 1)
    )


def test_save_memory_database_is_noop():
    Database("test").save()


def test_describe():
    db = Database("test")
    insert_many(db["a"], [{}, {}])
    db["b"].insert_one({})
    assert db.describe() == {"a": 2, "b": 1}


def test_connect_memory():
    db = connect("memory://")
    assert db.root is None


def test_connect_file(tmp_path):
    db = connect(f"file://{tmp_path}/store")
    db["c"].insert_one({"_id": "x"})
    db.save()
    again = connect(f"file://{tmp_path}/store")
    assert again["c"].count() == 1


def test_connect_bad_scheme():
    with pytest.raises(ValidationError):
        connect("mongodb://localhost")


# ----------------------------------------------------------------- FileStore


def test_filestore_memory_roundtrip():
    store = FileStore(None)
    digest = store.put_bytes(b"vmlinux contents")
    assert store.get_bytes(digest) == b"vmlinux contents"
    assert digest in store
    assert len(store) == 1


def test_filestore_disk_roundtrip(tmp_path):
    store = FileStore(str(tmp_path / "blobs"))
    digest = store.put_bytes(b"disk image")
    assert store.get_bytes(digest) == b"disk image"
    assert store.list_ids() == [digest]


def test_filestore_idempotent_put():
    store = FileStore(None)
    one = store.put_bytes(b"data")
    two = store.put_bytes(b"data")
    assert one == two
    assert len(store) == 1


def test_filestore_missing_blob_raises():
    store = FileStore(None)
    with pytest.raises(NotFoundError):
        store.get_bytes("0" * 64)


def test_filestore_detects_on_disk_corruption(tmp_path):
    store = FileStore(str(tmp_path / "blobs"))
    digest = store.put_bytes(b"pristine disk image")
    # Corrupt the blob behind the store's back (bit rot / truncation),
    # in its hash-prefix shard directory.
    blob_path = tmp_path / "blobs" / digest[:2] / digest
    blob_path.write_bytes(b"pristine disk imagX")
    with pytest.raises(CorruptBlobError, match=digest[:16]):
        store.get_bytes(digest)
    # Healthy blobs in the same store still read fine.
    other = store.put_bytes(b"healthy")
    assert store.get_bytes(other) == b"healthy"


def test_filestore_detects_in_memory_corruption():
    store = FileStore(None)
    digest = store.put_bytes(b"payload")
    store._memory[digest] = b"tampered"
    with pytest.raises(CorruptBlobError):
        store.get_bytes(digest)


def test_database_filestore_persists(tmp_path):
    root = str(tmp_path / "db")
    db = Database("test", root=root)
    digest = db.files.put_bytes(b"image")
    db.save()
    reloaded = Database("test", root=root)
    assert reloaded.files.get_bytes(digest) == b"image"
