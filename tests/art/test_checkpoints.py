"""Tests for the prefix-keyed CheckpointStore: storage and gc.  How a
consult degrades is the memo protocol's matrix, ``test_memo.py``; who
boots (once per unique prefix, on the planner's thread) is
``test_checkpoint_plan.py``."""

import pytest

from repro import telemetry
from repro.art import ArtifactDB, CheckpointStore
from repro.sim import Checkpoint


@pytest.fixture
def db():
    return ArtifactDB()


@pytest.fixture
def store(db):
    return CheckpointStore(db)


def make_checkpoint(**overrides):
    fields = dict(
        kernel_version="4.19.83",
        boot_type="systemd",
        disk_image_hash="d" * 32,
        num_cpus=2,
        memory_system="MESI_Two_Level",
        boot_seconds=11.5,
        boot_instructions=4_000_000,
    )
    fields.update(overrides)
    return Checkpoint(**fields)


def test_store_get_roundtrip(store):
    checkpoint = make_checkpoint()
    assert store.store("prefix-a", checkpoint) is True
    with telemetry.session() as session:
        found = store.get("prefix-a")
    assert found == checkpoint
    assert found.checkpoint_id == checkpoint.checkpoint_id
    hits = session.metrics.counter("checkpoint_hits_total")
    assert hits.value(boot_type="systemd") == 1


def test_get_without_prefix_is_a_miss(store):
    assert store.get(None) is None


def test_first_writer_wins(store):
    first = make_checkpoint(boot_seconds=10.0)
    second = make_checkpoint(boot_seconds=99.0)
    assert store.store("prefix-a", first) is True
    assert store.store("prefix-a", second) is False
    assert store.get("prefix-a").boot_seconds == 10.0


def test_gc_evicts_orphaned_prefixes(db, store):
    store.store("live", make_checkpoint(num_cpus=1))
    store.store("orphan", make_checkpoint(num_cpus=8))
    orphan_blob = store.lookup("orphan")["file_id"]
    assert store.gc(live_prefixes={"live"}) == 1
    assert store.lookup("live") is not None
    assert store.lookup("orphan") is None
    with pytest.raises(Exception):
        db.download_file(orphan_blob)


def test_stats_summary(store):
    store.store("a", make_checkpoint(boot_type="systemd", boot_seconds=10.0))
    store.store("b", make_checkpoint(boot_type="init", boot_seconds=5.0))
    summary = store.stats()
    assert summary["entries"] == 2
    # Counted from run documents (test_checkpoint_plan.py): none here.
    assert summary["restores"] == 0
    assert summary["boot_seconds"] == pytest.approx(15.0)
    assert summary["by_boot_type"] == {"systemd": 1, "init": 1}
