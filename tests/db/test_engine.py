"""Tests for the storage engine: recover, compact, refuse.

What can be generated is in ``test_engine_model.py``; here are the
examples a model cannot see (files on disk, reports, messages).
"""

import os
import threading

import pytest

from repro.art import ArtifactDB
from repro.common.errors import DuplicateError, FormatError, ValidationError
from repro.db import Database, connect
from repro.db.engine import FORMAT
from repro.db.engine.wal import encode_record, new_deflater, read_log
from tests.helpers import insert_many


def open_db(tmp_path, **kwargs):
    return Database("test", root=str(tmp_path / "db"), **kwargs)


# ----------------------------------------------------------- durability


def test_writes_survive_without_save(tmp_path):
    db = open_db(tmp_path, durability="strict")
    db["runs"].insert_one({"_id": "r1", "outcome": "done"})
    db.close()  # never called save()
    again = open_db(tmp_path)
    assert again["runs"].find_one({"_id": "r1"})["outcome"] == "done"
    again.close()


def test_updates_and_deletes_replay(tmp_path):
    db = open_db(tmp_path, durability="strict")
    insert_many(
        db["runs"],
        [{"_id": "a", "n": 1}, {"_id": "b", "n": 2}, {"_id": "c", "n": 3}]
    )
    db["runs"].update_one({"_id": "a"}, {"$set": {"n": 10}})
    db["runs"].delete_one({"_id": "b"})
    db.close()
    again = open_db(tmp_path)
    assert again["runs"].find_one({"_id": "a"})["n"] == 10
    assert again["runs"].find_one({"_id": "b"}) is None
    assert again["runs"].count() == 2
    again.close()


def test_update_is_logged_as_its_effect(tmp_path):
    """What each touched path holds afterwards — never the operators,
    never the document — and a sealed segment holds no ``update``."""
    db = open_db(tmp_path, durability="strict")
    runs = db["runs"]
    runs.insert_one({"_id": "a", "n": 1, "log": ["x"], "big": "x" * 4096})
    runs.update_one(
        {"_id": "a"},
        {
            "$set": {"n": 3, "log": ["x", "y"], "r.s": 1, "q": {"a": 1}},
            "$unset": {"q.a": "", "big": ""},
        },
    )
    runs.replace_one({"_id": "a"}, {"n": 3, "log": ["x", "y"]})
    directory = tmp_path / "db" / "engine" / "runs"
    records, _, _ = read_log(str(directory / "wal.log"))
    assert records[1:] == [
        {
            "op": "update",
            "id": "a",
            "set": {"n": 3, "log": ["x", "y"], "r": {"s": 1}, "q": {}},
            "unset": ["big"],
        },
        {"op": "replace", "doc": {"_id": "a", "n": 3, "log": ["x", "y"]}},
    ]
    runs.update_one({"_id": "a"}, {"$set": {"n": 4}})
    db.compact()
    sealed, _, _ = read_log(str(directory / "segment.seg"))
    assert sealed == [
        {"op": "insert", "doc": {"_id": "a", "n": 4, "log": ["x", "y"]}}
    ]
    db.close()


def test_update_of_a_document_the_log_does_not_hold_is_damage(tmp_path):
    db = open_db(tmp_path, durability="strict")
    db["runs"].insert_one({"_id": "a"})
    db.close()
    wal = tmp_path / "db" / "engine" / "runs" / "wal.log"
    stray = {"op": "update", "id": "ghost", "set": {"n": 1}, "unset": []}
    with open(wal, "ab") as handle:
        handle.write(encode_record(stray, new_deflater()))
    with pytest.raises(ValidationError, match="ghost"):
        open_db(tmp_path)
    # ... unless the log goes on to delete it: a WAL replayed over the
    # segment it was folded into finds such a document already gone.
    with open(wal, "ab") as handle:
        delete = {"op": "delete", "id": "ghost"}
        handle.write(encode_record(delete, new_deflater()))
    with open_db(tmp_path) as again:
        assert again["runs"].find() == [{"_id": "a"}]


def test_indexes_restored_on_reopen(tmp_path):
    """"Duplicate artifacts are not permitted in the database", after a
    reopen too: ``ArtifactDB`` declares the index, the log has none."""
    with open_db(tmp_path) as db:
        ArtifactDB(db).put_artifact({"_id": "a", "hash": "h1"})
    with open_db(tmp_path) as again:
        with pytest.raises(DuplicateError):
            ArtifactDB(again).put_artifact({"_id": "b", "hash": "h1"})
    wal = tmp_path / "db" / "engine" / "artifacts" / "wal.log"
    assert [record["op"] for record in read_log(str(wal))[0]] == ["insert"]


# -------------------------------------------------------------- compact


def test_compaction_merges_and_drops_tombstones(tmp_path):
    db = open_db(tmp_path)
    for i in range(40):
        db["runs"].insert_one({"_id": f"r{i}", "payload": "x" * 32})
    for i in range(0, 40, 2):
        db["runs"].delete_one({"_id": f"r{i}"})
    before = db.storage_stats()["collections"]["runs"]
    results = db.compact()
    assert results["runs"]["merged"] == 60
    assert results["runs"]["reclaimed_bytes"] > 0
    after = db.storage_stats()["collections"]["runs"]
    assert after["wal_bytes"] == 0
    assert 0 < after["segment_bytes"] < before["wal_bytes"]
    assert sorted(os.listdir(tmp_path / "db" / "engine" / "runs")) == [
        "segment.seg", "wal.log",
    ]
    db.close()
    again = open_db(tmp_path)
    assert again["runs"].count() == 20
    assert again["runs"].find_one({"_id": "r1"}) is not None
    assert again["runs"].find_one({"_id": "r2"}) is None
    again.close()


# ------------------------------------------------------------ recovery


def test_recovery_report_shape(tmp_path):
    db = open_db(tmp_path, durability="strict")
    db["runs"].insert_one({"_id": "a"})
    db.close()
    again = open_db(tmp_path)
    report = again.recovery_report()
    assert report["runs"]["records_replayed"] == 1
    assert report["runs"]["truncated_bytes"] == 0
    again.close()


def test_torn_wal_tail_is_truncated_on_open(tmp_path):
    db = open_db(tmp_path, durability="strict")
    insert_many(db["runs"], [{"_id": "a"}, {"_id": "b"}])
    db.close()
    wal = tmp_path / "db" / "engine" / "runs" / "wal.log"
    with open(wal, "ab") as handle:
        handle.write(b"\xde\xad\xbe\xef half a record")
    torn_size = os.path.getsize(wal)
    # ... and a crash mid-compaction its unpublished output.
    debris = wal.with_name("segment.seg.tmp")
    debris.write_bytes(b"half a compacted segment")
    again = open_db(tmp_path)
    assert again["runs"].count() == 2
    assert not debris.exists()
    report = again.recovery_report()["runs"]
    assert report["truncated_bytes"] > 0
    assert os.path.getsize(wal) < torn_size  # tail physically removed
    again.close()
    # A third open sees a clean WAL: nothing left to truncate.
    third = open_db(tmp_path)
    assert third.recovery_report()["runs"]["truncated_bytes"] == 0
    third.close()


# ---------------------------------------------------------------- misc


def test_collection_name_validation(tmp_path):
    db = open_db(tmp_path)
    with pytest.raises(ValidationError):
        db.collection("../escape")
    with pytest.raises(ValidationError):
        db.collection(".hidden")
    db.close()


def test_a_fresh_root_is_stamped_before_anything_else(tmp_path, monkeypatch):
    """The stamp goes down before ``engine/`` or ``files/`` exists, so a
    crash while writing it leaves no database, and the next open starts
    one; an ``index`` record, which no format-1 log holds, is refused."""
    root = tmp_path / "db"
    monkeypatch.setattr(os, "replace", lambda *a: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        open_db(tmp_path)
    assert sorted(os.listdir(root)) == ["FORMAT.tmp"]
    monkeypatch.undo()
    with open_db(tmp_path) as db:
        db["c"].insert_one({"_id": "a"})
    assert (root / "FORMAT").read_text() == f"{FORMAT}\n"
    assert sorted(os.listdir(root)) == ["FORMAT", "engine", "files"]
    (root / "FORMAT").write_text("one")
    with pytest.raises(FormatError, match="FORMAT: database format one"):
        open_db(tmp_path)
    (root / "FORMAT").write_text(f"{FORMAT}\n")
    with open(root / "engine" / "c" / "wal.log", "ab") as handle:
        index = {"op": "index", "field": "h", "unique": True}
        handle.write(encode_record(index, new_deflater()))
    with pytest.raises(ValidationError, match="unknown WAL op: 'index'"):
        open_db(tmp_path)


def test_connect_durability_uri(tmp_path):
    db = connect(f"file://{tmp_path}/store?durability=strict")
    assert db.durability == "strict"
    db.close()
    with pytest.raises(ValidationError):
        connect(f"file://{tmp_path}/store?durability=paranoid")
    with pytest.raises(ValidationError):
        connect(f"file://{tmp_path}/store?bogus=1")


def test_database_context_manager(tmp_path):
    before = threading.active_count()
    with open_db(tmp_path) as db:
        db["c"].insert_one({"_id": "x"})
        assert threading.active_count() == before  # no housekeeping thread
    with pytest.raises(ValueError):  # closed on exit
        db["c"].insert_one({"_id": "y"})
