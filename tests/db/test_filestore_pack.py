"""Tests for the FileStore pack: framing, torn tails, tombstones, scrub,
durability and fork hygiene."""

import collections
import gc
import os
import shutil

import pytest

from repro import telemetry
from repro.art import ArtifactDB, run_jobs_pool
from repro.cli import main
from repro.common.errors import (
    CorruptBlobError,
    NotFoundError,
    ValidationError,
)
from repro.common.hashing import sha256_bytes
from repro.db import Database, connect
from repro.db.engine.wal import WalWriter
from repro.db.filestore import HEADER, PACK_NAME, FileStore, read_pack

from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.helpers import blob_extent, flip_blob_bytes


def records_of(root):
    """``(records, end, size)`` of the pack under ``root``."""
    with open(os.path.join(root, PACK_NAME), "rb") as handle:
        records, end = read_pack(handle.fileno())
        return records, end, os.fstat(handle.fileno()).st_size


# ---------------------------------------------------------------- layout


def test_blobs_append_to_one_pack(tmp_path):
    store = FileStore(str(tmp_path))
    payloads = [b"first", b"second payload", b""]
    digests = [store.put_bytes(payload) for payload in payloads]
    assert os.listdir(tmp_path) == [PACK_NAME]
    records, end, size = records_of(tmp_path)
    assert end == size == sum(HEADER.size + len(p) for p in payloads)
    assert [(d, n) for d, _, n in records] == [
        (digest, len(payload)) for digest, payload in zip(digests, payloads)
    ]
    for digest, payload in zip(digests, payloads):
        assert store.get_bytes(digest) == payload


def test_stats_report_live_and_dead_bytes(tmp_path):
    store = FileStore(str(tmp_path))
    digests = sorted({store.put_bytes(bytes([i]) * 10) for i in range(20)})
    record = HEADER.size + 10
    assert store.stats() == {
        "blobs": 20, "bytes": 200, "pack_bytes": 20 * record,
        "dead_bytes": 0, "quarantined": 0,
    }
    assert store.delete(digests[0])
    # The deleted record and its tombstone are dead; bytes is live only.
    assert store.stats() == {
        "blobs": 19, "bytes": 190, "pack_bytes": 20 * record + HEADER.size,
        "dead_bytes": record + HEADER.size, "quarantined": 0,
    }
    assert FileStore(str(tmp_path)).stats() == store.stats()


def test_open_reads_headers_not_payloads(tmp_path, monkeypatch):
    store = FileStore(str(tmp_path))
    for i in range(5):
        store.put_bytes(bytes([i]) * 4096)
    store.close()
    reads = []
    real = os.pread
    monkeypatch.setattr(
        os, "pread", lambda fd, n, at: reads.append(n) or real(fd, n, at)
    )
    assert len(FileStore(str(tmp_path))) == 5
    assert reads == [HEADER.size] * 5


def test_old_shard_layout_is_refused(tmp_path):
    shard = tmp_path / "db" / "files" / "ab"
    shard.mkdir(parents=True)
    (shard / ("ab" + "0" * 62)).write_bytes(b"a blob of the old layout")
    with pytest.raises(ValidationError, match="one-file-per-blob"):
        FileStore(str(shard.parent))
    with pytest.raises(ValidationError, match="one-file-per-blob"):
        Database("test", root=str(tmp_path / "db"))
    assert not (shard.parent / PACK_NAME).exists()


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


# ------------------------------------------------------------- torn tail


@pytest.mark.parametrize("last", ["blob", "tombstone"])
def test_torn_tail_at_every_byte_reopens_to_earlier_blobs(tmp_path, last):
    """A crash mid-append leaves any prefix of the last record: a reopen
    keeps every record before it, cuts the pack back to them and takes
    the interrupted write again."""
    pristine = tmp_path / "pristine"
    store = FileStore(str(pristine))
    earlier = {store.put_bytes(p): p for p in (b"kept 1", b"kept 2")}
    if last == "tombstone":
        victim = store.put_bytes(b"the last record")
        earlier[victim] = b"the last record"
    before = store.stats()["pack_bytes"]  # where the last record starts
    if last == "blob":
        victim = store.put_bytes(b"the last record")
    else:
        store.delete(victim)
    store.close()
    whole = (pristine / PACK_NAME).read_bytes()
    assert len(whole) > before
    for cut in range(before, len(whole)):
        root = tmp_path / f"cut{cut}"
        root.mkdir()
        (root / PACK_NAME).write_bytes(whole[:cut])
        with telemetry.session() as session:
            reopened = FileStore(str(root))
            torn = session.metrics.counter(
                "filestore_recovery_truncated_bytes_total"
            ).value()
        assert torn == cut - before
        assert os.path.getsize(root / PACK_NAME) == before
        assert reopened.list_ids() == sorted(earlier)
        for digest, payload in earlier.items():
            assert reopened.get_bytes(digest) == payload
        # The interrupted write is accepted again, and lands whole.
        if last == "blob":
            assert reopened.put_bytes(b"the last record") == victim
        else:
            assert reopened.delete(victim)
        reopened.close()
        assert (root / PACK_NAME).read_bytes() == whole
        shutil.rmtree(root)


def test_a_failed_append_is_cut_off(tmp_path, monkeypatch):
    """An OSError half-way through an append leaves no half record for
    the next append to land behind."""
    store = FileStore(str(tmp_path))
    kept = store.put_bytes(b"kept")
    real = os.writev

    def half_then_fail(fd, buffers):
        real(fd, [b"".join(buffers)[:30]])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "writev", half_then_fail)
    with pytest.raises(OSError):
        store.put_bytes(b"lost to a full disk")
    monkeypatch.setattr(os, "writev", real)
    assert not store.exists(sha256_bytes(b"lost to a full disk"))
    later = store.put_bytes(b"written after the failure")
    _, end, size = records_of(tmp_path)
    assert end == size == store.stats()["pack_bytes"]
    reopened = FileStore(str(tmp_path))
    assert reopened.list_ids() == sorted([kept, later])
    assert reopened.get_bytes(later) == b"written after the failure"


# ------------------------------------------------------------ tombstones


def test_tombstone_hides_blob_across_reopen_and_reput_restores(tmp_path):
    store = FileStore(str(tmp_path))
    keep = store.put_bytes(b"neighbour")
    gone = store.put_bytes(b"to be deleted")
    assert store.delete(gone)
    assert not store.delete(gone)
    assert not store.exists(gone)
    with pytest.raises(NotFoundError):
        store.get_bytes(gone)
    assert records_of(tmp_path)[0][-1] == (
        gone, 2 * HEADER.size + 9 + 13 + HEADER.size, None
    )
    store.close()

    reopened = FileStore(str(tmp_path))
    assert reopened.list_ids() == [keep]
    with pytest.raises(NotFoundError):
        reopened.get_bytes(gone)
    assert reopened.put_bytes(b"to be deleted") == gone
    assert reopened.get_bytes(gone) == b"to be deleted"
    reopened.close()
    again = FileStore(str(tmp_path))
    assert again.list_ids() == sorted([keep, gone])
    assert again.get_bytes(gone) == b"to be deleted"


# ------------------------------------------------------------------ scrub


def test_scrub_clean_store(tmp_path):
    store = FileStore(str(tmp_path))
    store.put_bytes(b"one")
    store.put_bytes(b"two")
    report = store.scrub()
    assert report["scanned"] == 2
    assert report["quarantined"] == []


def test_flipped_byte_raises_and_scrub_quarantines_it(tmp_path):
    store = FileStore(str(tmp_path))
    good = store.put_bytes(b"stays pristine")
    bad = store.put_bytes(b"will rot")
    flip_blob_bytes(tmp_path, bad)
    with pytest.raises(CorruptBlobError, match=bad[:16]):
        store.get_bytes(bad)
    report = store.scrub()
    assert report["quarantined"] == [bad]
    assert not store.exists(bad)
    rotten = bytes([ord("w") ^ 0xFF]) + b"ill rot"
    assert (tmp_path / "quarantine" / bad).read_bytes() == rotten
    assert records_of(tmp_path)[0][-1][::2] == (bad, None)  # a tombstone
    assert store.get_bytes(good) == b"stays pristine"
    # The address is free again: a pristine re-put repopulates it.
    assert store.put_bytes(b"will rot") == bad
    assert store.get_bytes(bad) == b"will rot"
    store.close()
    reopened = FileStore(str(tmp_path))
    assert reopened.get_bytes(bad) == b"will rot"
    assert reopened.stats()["quarantined"] == 1


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
    flip_blob_bytes(tmp_path, bad)
    store.put_bytes(b"healthy")
    with telemetry.session() as session:
        store.scrub()
        metrics = session.metrics
        assert metrics.counter("filestore_scrub_scanned_total").value() == 2
        assert (
            metrics.counter("filestore_scrub_quarantined_total").value() == 1
        )


# ------------------------------------------------------------- durability


@pytest.fixture
def pack_syncs(monkeypatch):
    """``(pack path, [pack size at each fsync of the pack])``."""

    def watch(root):
        pack = os.path.join(root, PACK_NAME)
        real = os.fsync

        def fsync(fd):
            real(fd)
            if os.path.exists(pack) and (
                os.fstat(fd).st_ino == os.stat(pack).st_ino
            ):
                syncs.append(os.fstat(fd).st_size)

        syncs = []
        monkeypatch.setattr(os, "fsync", fsync)
        return syncs

    return watch


def test_batch_syncs_the_pack_on_save_and_close(tmp_path, pack_syncs):
    syncs = pack_syncs(tmp_path / "db" / "files")
    db = Database("test", root=str(tmp_path / "db"))
    db.files.put_bytes(b"one")
    db.files.put_bytes(b"two")
    assert syncs == []
    db.save()
    assert syncs == [2 * HEADER.size + 6]
    db.save()  # nothing new to sync
    db.files.put_bytes(b"three")
    db.close()
    assert syncs == [2 * HEADER.size + 6, 3 * HEADER.size + 11]


def test_strict_put_syncs_the_pack_before_it_returns(tmp_path, pack_syncs):
    syncs = pack_syncs(tmp_path / "db" / "files")
    db = connect(f"file://{tmp_path / 'db'}?durability=strict")
    db.files.put_bytes(b"one")
    assert syncs == [HEADER.size + 3]
    db.files.put_bytes(b"one")  # already durable: no append, no sync
    db.close()
    assert syncs == [HEADER.size + 3]


def test_strict_sweep_syncs_each_stats_blob_before_its_done_record(
    tmp_path, monkeypatch, pack_syncs, capsys
):
    """Under ``strict`` no ``done`` run document reaches the WAL while
    the stats blob it names is not yet on disk."""
    root = tmp_path / "db"
    syncs = pack_syncs(root / "files")
    order = []
    real_append = WalWriter.append

    def append(writer, record):
        # A run's document is inserted once, with its outcome.
        if (
            writer.collection == "runs"
            and record["op"] == "insert"
            and record["doc"]["status"] == "done"
        ):
            order.append(
                (max(syncs, default=0),
                 record["doc"]["results"].get("stats_file_id"))
            )
        return real_append(writer, record)

    monkeypatch.setattr(WalWriter, "append", append)
    uri = f"file://{root}?durability=strict"
    assert main(["boot-tests", "--quick", "--db", uri]) == 0
    capsys.readouterr()
    named = [(synced, blob) for synced, blob in order if blob]
    assert len(order) == 48 and len(named) > 24
    for synced, blob in named:
        start, length = blob_extent(root / "files", blob)
        assert start + length <= synced, blob


# --------------------------------------------------------- fork hygiene


def test_a_forked_copy_of_the_store_writes_nothing(tmp_path):
    """A child that drops its inherited store — finalisers run, as in a
    process that exits normally — adds no byte to the pack."""
    store = FileStore(str(tmp_path))
    for i in range(3):
        store.put_bytes(b"blob %d" % i)
    before = (tmp_path / PACK_NAME).read_bytes()
    pid = os.fork()
    if pid == 0:
        try:
            del store
            gc.collect()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    assert (tmp_path / PACK_NAME).read_bytes() == before
    store.close()
    assert (tmp_path / PACK_NAME).read_bytes() == before


@pytest.fixture
def db(tmp_path):
    return ArtifactDB(connect(f"file://{tmp_path}/pooldb"))


def test_pool_sweep_leaves_one_record_per_blob(db, fs_artifacts, tmp_path):
    """Forked pool seats inherit the pack's handle but no pending bytes:
    after a ``processes`` sweep the pack parses end to end and holds each
    distinct stats blob exactly once."""
    runs = [
        make_run(db, fs_artifacts, cpu_type="kvm", num_cpus=n)
        for n in (1, 1, 2, 2, 4)
    ]
    summaries = run_jobs_pool(runs, processes=2)
    assert all(summary["success"] for summary in summaries)
    stats = {db.get_run(r.run_id)["results"]["stats_file_id"] for r in runs}
    assert len(stats) == 3
    db.database.close()
    records, end, size = records_of(tmp_path / "pooldb" / "files")
    assert end == size
    counts = collections.Counter(digest for digest, _, _ in records)
    assert all(length is not None for _, _, length in records)
    assert max(counts.values()) == 1
    assert stats <= set(counts)
