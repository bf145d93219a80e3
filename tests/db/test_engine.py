"""Tests for the segmented storage engine: seal, recover, compact."""

import os
import time

import pytest

from repro.common.errors import ValidationError
from repro.db import Database, connect
from repro.db.engine import StorageEngine
from repro.db.engine.segments import CollectionStore
from repro.db.engine.wal import encode_record
from tests.helpers import insert_many, set_engine_knobs


@pytest.fixture(autouse=True)
def no_background_compactor(monkeypatch):
    """Segment files stay where a test put them unless it asks."""
    set_engine_knobs(monkeypatch, auto_compact=False)


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


def test_indexes_restored_on_reopen(tmp_path):
    db = open_db(tmp_path)
    db["arts"].create_unique_index("hash")
    db["arts"].create_index("kind")
    db["arts"].insert_one({"_id": "a", "hash": "h1", "kind": "disk"})
    db.close()
    again = open_db(tmp_path)
    assert again["arts"].index_fields() == {
        "hash": "unique",
        "kind": "secondary",
    }
    from repro.common.errors import DuplicateError

    with pytest.raises(DuplicateError):
        again["arts"].insert_one({"_id": "b", "hash": "h1"})
    again.close()


# ----------------------------------------------------------------- seal


def test_wal_seals_into_segments(tmp_path, monkeypatch):
    set_engine_knobs(monkeypatch, seal_bytes=256)
    db = open_db(tmp_path)
    for i in range(50):
        db["runs"].insert_one({"_id": f"r{i}", "payload": "x" * 32})
    stats = db.storage_stats()["collections"]["runs"]
    assert stats["segments"] >= 2
    db.close()
    again = open_db(tmp_path)
    assert again["runs"].count() == 50
    again.close()


def test_seal_is_noop_on_empty_wal(tmp_path):
    store = CollectionStore(str(tmp_path), "c", durability="none")
    assert store.seal() is None
    store.close()


# -------------------------------------------------------------- compact


def test_compaction_merges_and_drops_tombstones(tmp_path, monkeypatch):
    set_engine_knobs(monkeypatch, seal_bytes=256)
    db = open_db(tmp_path)
    for i in range(40):
        db["runs"].insert_one({"_id": f"r{i}", "payload": "x" * 32})
    for i in range(0, 40, 2):
        db["runs"].delete_one({"_id": f"r{i}"})
    before = db.storage_stats()["collections"]["runs"]
    results = db.compact()
    assert results["runs"]["merged"] >= 2
    assert results["runs"]["reclaimed_bytes"] > 0
    after = db.storage_stats()["collections"]["runs"]
    assert after["segments"] == 1
    assert after["segment_bytes"] < before["segment_bytes"]
    db.close()
    again = open_db(tmp_path)
    assert again["runs"].count() == 20
    assert again["runs"].find_one({"_id": "r1"}) is not None
    assert again["runs"].find_one({"_id": "r2"}) is None
    again.close()


def test_compaction_preserves_index_definitions(tmp_path, monkeypatch):
    set_engine_knobs(monkeypatch, seal_bytes=128)
    db = open_db(tmp_path)
    db["arts"].create_index("kind")
    for i in range(30):
        db["arts"].insert_one({"_id": f"a{i}", "kind": f"k{i % 3}"})
    db.compact()
    db.close()
    again = open_db(tmp_path)
    assert again["arts"].index_fields() == {"kind": "secondary"}
    again.close()


def test_background_compactor_merges(tmp_path, monkeypatch):
    set_engine_knobs(
        monkeypatch,
        auto_compact=True,
        seal_bytes=128,
        compact_interval=0.05,
        compact_min_segments=2,
    )
    db = open_db(tmp_path)
    for i in range(60):
        db["runs"].insert_one({"_id": f"r{i}", "payload": "x" * 32})
    deadline = time.time() + 10
    while time.time() < deadline:
        if db.storage_stats()["collections"]["runs"]["segments"] <= 2:
            break
        time.sleep(0.05)
    stats = db.storage_stats()["collections"]["runs"]
    assert stats["segments"] <= 2
    assert db["runs"].count() == 60
    db.close()
    assert not db._engine.compactor.running


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
    again = open_db(tmp_path)
    assert again["runs"].count() == 2
    report = again.recovery_report()["runs"]
    assert report["truncated_bytes"] > 0
    assert os.path.getsize(wal) < torn_size  # tail physically removed
    again.close()
    # A third open sees a clean WAL: nothing left to truncate.
    third = open_db(tmp_path)
    assert third.recovery_report()["runs"]["truncated_bytes"] == 0
    third.close()


def test_orphan_sealed_segment_is_adopted(tmp_path):
    """Crash between seal-rename and manifest publish loses nothing."""
    store = CollectionStore(str(tmp_path), "c", durability="strict")
    store.log_insert({"_id": "a"})
    # Simulate the crash window: rename the WAL by hand, no manifest.
    store.close()
    os.replace(
        os.path.join(store.dir, "wal.log"),
        os.path.join(store.dir, "segment-00000001.seg"),
    )
    reopened = CollectionStore(str(tmp_path), "c", durability="strict")
    docs, _, report = reopened.load()
    assert "a" in docs
    assert report["segments"] == 1
    reopened.close()


def test_stranded_compaction_output_is_swept_not_adopted(tmp_path):
    """A compacted snapshot left between its rename and the manifest
    write must never be adopted as a seal orphan: it reflects state as
    of merge *start*, so appending it to the manifest would replay it
    after newer sealed ops and resurrect deletes / revert updates."""
    store = CollectionStore(str(tmp_path), "c", durability="strict")
    for i in range(4):
        store.log_insert({"_id": f"r{i}"})
    store.seal()  # segment-00000001
    store.log_insert({"_id": "r4"})
    store.seal()  # segment-00000002
    # Merge-start snapshot of those two segments: every doc alive.
    snapshot = b"".join(
        encode_record({"op": "insert", "doc": {"_id": f"r{i}"}})
        for i in range(5)
    )
    # Newer acknowledged ops, sealed while the merge was running.
    store.log_delete("r0")
    store.log_replace({"_id": "r1", "v": 2})
    store.seal()  # segment-00000003
    store.close()
    # Crash landed after compaction renamed its output into place but
    # before the manifest republish: the file exists under next_seq,
    # unreferenced — in the compact-* namespace, never segment-*.
    stranded = os.path.join(store.dir, "compact-00000004.seg")
    with open(stranded, "wb") as handle:
        handle.write(snapshot)
    reopened = CollectionStore(str(tmp_path), "c", durability="strict")
    docs, _, _ = reopened.load()
    assert "r0" not in docs  # delete not resurrected
    assert docs["r1"] == {"_id": "r1", "v": 2}  # update not reverted
    assert not os.path.exists(stranded)  # swept, not adopted
    reopened.close()


def test_compaction_output_lives_in_compact_namespace(tmp_path):
    """Published merges are compact-*.seg; orphan adoption only ever
    recognises segment-*, so the two can never be confused."""
    store = CollectionStore(str(tmp_path), "c", durability="none")
    store.log_insert({"_id": "a"})
    store.seal()
    store.log_insert({"_id": "b"})
    store.seal()
    result = store.compact()
    assert result["segment"].startswith("compact-")
    store.close()
    reopened = CollectionStore(str(tmp_path), "c", durability="none")
    docs, _, _ = reopened.load()
    assert set(docs) == {"a", "b"}
    reopened.close()


def test_stale_unreferenced_segments_are_swept(tmp_path):
    store = CollectionStore(str(tmp_path), "c", durability="none")
    store.log_insert({"_id": "a"})
    store.seal()
    # Debris with a seq far below next_seq (pre-compaction leftovers).
    debris = os.path.join(store.dir, "segment-99999999.seg")
    with open(debris, "wb") as handle:
        handle.write(b"old segment bytes")
    store.close()
    reopened = CollectionStore(str(tmp_path), "c", durability="none")
    assert not os.path.exists(debris)
    docs, _, _ = reopened.load()
    assert set(docs) == {"a"}
    reopened.close()


# ---------------------------------------------------------------- misc


def test_collection_name_validation(tmp_path):
    engine = StorageEngine(str(tmp_path), "batch")
    with pytest.raises(ValidationError):
        engine.store("../escape")
    with pytest.raises(ValidationError):
        engine.store(".hidden")
    engine.close()


def test_connect_durability_uri(tmp_path):
    db = connect(f"file://{tmp_path}/store?durability=strict")
    assert db.durability == "strict"
    db.close()
    with pytest.raises(ValidationError):
        connect(f"file://{tmp_path}/store?durability=paranoid")
    with pytest.raises(ValidationError):
        connect(f"file://{tmp_path}/store?bogus=1")


def test_database_context_manager(tmp_path):
    with open_db(tmp_path) as db:
        db["c"].insert_one({"_id": "x"})
    assert not db._engine.compactor.running
