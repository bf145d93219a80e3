"""Tests for the FileStore pack: framing, deflated records, torn tails,
tombstones, scrub, durability and fork hygiene."""

import collections
import gc
import hashlib
import os
import shutil
import zlib

import pytest

from repro import telemetry
from repro.art import ArtifactDB, run_jobs_scheduler
from repro.cli import main
from repro.common.errors import (
    CorruptBlobError,
    NotFoundError,
    ValidationError,
)
from repro.common.hashing import sha256_bytes
from repro.db import Database, connect
from repro.db.engine.wal import WalWriter
from repro.db.filestore import (
    BASE_EVERY, HEADER, PACK_NAME, FileStore, read_pack,
)

from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.helpers import blob_extent, flip_blob_bytes


#: A payload that deflates to well under half its length.
SQUASHABLE = b"system.cpu.numCycles    1234567    # cycles\n" * 12

#: A payload that does not deflate: 256 bytes of raw SHA-256 digests.
NOISE = b"".join(hashlib.sha256(bytes([i])).digest() for i in range(8))


def records_of(root):
    """``(records, end, size)`` of the pack under ``root``."""
    with open(os.path.join(root, PACK_NAME), "rb") as handle:
        records, end = read_pack(handle.fileno())
        return records, end, os.fstat(handle.fileno()).st_size


# ---------------------------------------------------------------- layout


def test_stats_report_live_and_dead_bytes(tmp_path):
    store = FileStore(str(tmp_path))
    digests = sorted({store.put_bytes(bytes([i]) * 10) for i in range(20)})
    record = HEADER.size + 10
    assert store.stats() == {
        "blobs": 20, "bytes": 200, "deflated": 0, "deltas": 0,
        "pack_bytes": 20 * record, "dead_bytes": 0, "quarantined": 0,
    }
    assert store.delete(digests[0])
    # The deleted record and its tombstone are dead; bytes is live only.
    assert store.stats() == {
        "blobs": 19, "bytes": 190, "deflated": 0, "deltas": 0,
        "pack_bytes": 20 * record + HEADER.size,
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


# ------------------------------------------------------ deflated records


def test_a_squashable_blob_is_stored_deflated_under_its_raw_digest(tmp_path):
    store = FileStore(str(tmp_path))
    digest = store.put_bytes(SQUASHABLE)
    assert digest == sha256_bytes(SQUASHABLE)
    [(_, _, length, deflated)] = records_of(tmp_path)[0]
    assert deflated and length < len(SQUASHABLE) // 2
    header = (tmp_path / PACK_NAME).read_bytes()[: HEADER.size]
    assert HEADER.unpack(header) == (bytes.fromhex(digest), length | 1 << 63)
    assert store.stats()["bytes"] == length
    assert store.stats()["deflated"] == 1
    assert store.get_bytes(digest) == SQUASHABLE
    store.close()
    assert FileStore(str(tmp_path)).get_bytes(digest) == SQUASHABLE


@pytest.mark.parametrize(
    "payload", [b"", b"x", b"tiny", NOISE],
    ids=["empty", "one-byte", "tiny", "noise"],
)
def test_a_tiny_or_incompressible_blob_is_stored_raw(tmp_path, payload):
    store = FileStore(str(tmp_path))
    digest = store.put_bytes(payload)
    [(_, _, length, deflated)] = records_of(tmp_path)[0]
    assert (length, deflated) == (len(payload), False)
    assert store.stats()["deflated"] == 0
    assert store.get_bytes(digest) == payload


def test_a_duplicate_put_deflates_nothing(tmp_path, monkeypatch):
    store = FileStore(str(tmp_path))
    digests = [store.put_bytes(blob) for blob in (SQUASHABLE, NOISE)]
    size = os.path.getsize(tmp_path / PACK_NAME)
    for name in ("compress", "compressobj"):
        monkeypatch.setattr(
            f"repro.db.filestore.zlib.{name}",
            lambda *a, **k: pytest.fail("a duplicate put compressed"),
        )
    assert [store.put_bytes(blob) for blob in (SQUASHABLE, NOISE)] == digests
    assert os.path.getsize(tmp_path / PACK_NAME) == size


def test_rot_inside_a_deflated_payload_is_caught_and_quarantined(tmp_path):
    store = FileStore(str(tmp_path))
    good = store.put_bytes(SQUASHABLE)
    bad = store.put_bytes(SQUASHABLE + b"rots\n")
    start, length = blob_extent(tmp_path, bad)
    with open(tmp_path / PACK_NAME, "r+b") as handle:
        handle.seek(start + length // 2)
        byte = handle.read(1)
        handle.seek(start + length // 2)
        handle.write(bytes([byte[0] ^ 0x01]))
        handle.seek(start)
        rotten = handle.read(length)
    with pytest.raises(CorruptBlobError, match=bad[:16]):
        store.get_bytes(bad)
    report = store.scrub()
    assert report == {"scanned": 2, "quarantined": [bad]}
    # The payload does not inflate, so quarantine keeps it as stored.
    assert (tmp_path / "quarantine" / bad).read_bytes() == rotten
    assert store.get_bytes(good) == SQUASHABLE
    assert store.put_bytes(SQUASHABLE + b"rots\n") == bad
    assert store.get_bytes(bad) == SQUASHABLE + b"rots\n"
    assert FileStore(str(tmp_path)).scrub()["quarantined"] == []


def delta_heads(root):
    """The first 9 payload bytes of every record in the pack."""
    pack = (root / PACK_NAME).read_bytes()
    return [pack[start:start + 9] for _, start, _, _ in records_of(root)[0]]


@pytest.mark.parametrize("base_deleted", [False, True])
def test_deltas_name_a_base_of_at_most_32_kib(tmp_path, base_deleted):
    """A blob over 32 KiB is deflated but never a base; the next one is,
    the 7 after it are deltas naming its offset and the 8th is a base.
    A delta whose base was deleted still reads (its bytes stay), but a
    deleted base is no base: the next blob is deflated plain."""
    store = FileStore(str(tmp_path))
    blobs = [SQUASHABLE * 64] + [SQUASHABLE + b"%d" % i for i in range(9)]
    digests = [store.put_bytes(blob) for blob in blobs]
    heads, base = delta_heads(tmp_path), records_of(tmp_path)[0][1][1]
    assert [head[:1] == b"\xff" for head in heads] == [False] * 2 + [
        True] * (BASE_EVERY - 1) + [False]
    assert set(heads[2:-1]) == {b"\xff" + base.to_bytes(8, "big")}
    assert store.stats()["deltas"] == BASE_EVERY - 1
    gone = {digests[1], digests[-1]} if base_deleted else set()
    assert all(store.delete(digest) for digest in gone)
    reopened = FileStore(str(tmp_path))
    for digest, blob in zip(digests, blobs):
        if digest not in gone:
            assert reopened.get_bytes(digest) == blob
    reopened.put_bytes(SQUASHABLE + b"next")
    assert (delta_heads(tmp_path)[-1][:1] == b"\xff") != base_deleted
    start, _ = blob_extent(tmp_path, digests[2])
    with open(tmp_path / PACK_NAME, "r+b") as pack:
        pack.seek(start + 1)
        pack.write(bytes(8))  # a delta's base offset rots to 0
    with pytest.raises(CorruptBlobError):
        FileStore(str(tmp_path)).get_bytes(digests[2])


@pytest.mark.parametrize("rotten", [0, 2], ids=["base", "delta"])
def test_rot_in_a_base_loses_its_deltas_and_one_scrub_takes_them(
    tmp_path, rotten
):
    """Rot in a base fails each of its deltas too; rot in a delta, that
    blob alone.  One scrub quarantines them, and re-puts restore them."""
    store = FileStore(str(tmp_path))
    blobs = [SQUASHABLE + b"%d" % i for i in range(4)]
    digests = [store.put_bytes(blob) for blob in blobs]
    assert [store.get_bytes(digest) for digest in digests] == blobs
    flip_blob_bytes(tmp_path, digests[rotten])
    lost = [digests[rotten]] if rotten else digests
    fresh = FileStore(str(tmp_path))
    for digest in lost:
        with pytest.raises(CorruptBlobError, match="bytes read back"):
            fresh.get_bytes(digest)
    # The cached base does not hide rot from scrub.
    assert store.scrub()["quarantined"] == sorted(lost)
    assert [store.put_bytes(blob) for blob in blobs] == digests
    reopened = FileStore(str(tmp_path))
    assert [reopened.get_bytes(digest) for digest in digests] == blobs
    assert reopened.scrub()["quarantined"] == []


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


@pytest.mark.parametrize("last", ["blob", "deflated", "tombstone"])
def test_torn_tail_at_every_byte_reopens_to_earlier_blobs(tmp_path, last):
    """A crash mid-append leaves any prefix of the last record: a reopen
    keeps every record before it, cuts the pack back to them and takes
    the interrupted write again."""
    pristine = tmp_path / "pristine"
    store = FileStore(str(pristine))
    earlier = {store.put_bytes(p): p for p in (b"kept 1", b"kept 2")}
    final = SQUASHABLE if last == "deflated" else b"the last record"
    if last == "tombstone":
        victim = store.put_bytes(final)
        earlier[victim] = final
    before = store.stats()["pack_bytes"]  # where the last record starts
    if last == "tombstone":
        store.delete(victim)
    else:
        victim = store.put_bytes(final)
        assert store.stats()["deflated"] == (last == "deflated")
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
        if last == "tombstone":
            assert reopened.delete(victim)
        else:
            assert reopened.put_bytes(final) == victim
        reopened.close()
        assert (root / PACK_NAME).read_bytes() == whole
        shutil.rmtree(root)


def test_a_failed_append_is_cut_off(tmp_path, monkeypatch):
    """An OSError half-way through an append, or a write that comes back
    short, leaves no half record for the next append to land behind."""
    store = FileStore(str(tmp_path))
    kept = store.put_bytes(b"kept")
    real = os.writev

    def half_then_fail(fd, buffers):
        real(fd, [b"".join(buffers)[:30]])
        raise OSError(28, "No space left on device")

    def short(fd, buffers):
        return real(fd, [b"".join(buffers)[:30]])

    for writev in (half_then_fail, short):
        end = records_of(tmp_path)[2]
        monkeypatch.setattr(os, "writev", writev)
        with pytest.raises(OSError):
            store.put_bytes(b"lost to a full disk")
        monkeypatch.setattr(os, "writev", real)
        assert records_of(tmp_path)[2] == end
        assert not store.exists(sha256_bytes(b"lost to a full disk"))
    assert store.exists(kept)
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
        gone, 2 * HEADER.size + 9 + 13 + HEADER.size, None, False
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
    base = again.put_bytes(SQUASHABLE)
    again.delete(base)  # a deleted base is no base: the next is plain
    again.put_bytes(SQUASHABLE + b"after")
    assert again.stats()["deltas"] == 0
    assert again.get_bytes(gone) == b"to be deleted"


# ------------------------------------------------------------------ scrub


def test_scrub_clean_store(tmp_path):
    store = FileStore(str(tmp_path))
    store.put_bytes(b"one")
    store.put_bytes(b"two")
    report = store.scrub()
    assert report["scanned"] == 2
    assert report["quarantined"] == []


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
    Database("test", root=str(tmp_path / "db")).close()  # nothing to sync
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
    summaries = run_jobs_scheduler(runs, worker_count=2, substrate="processes")
    assert all(summary["success"] for summary in summaries)
    stats = {db.get_run(r.run_id)["results"]["stats_file_id"] for r in runs}
    assert len(stats) == 3
    db.database.close()
    records, end, size = records_of(tmp_path / "pooldb" / "files")
    assert end == size
    counts = collections.Counter(digest for digest, _, _, _ in records)
    assert all(length is not None for _, _, length, _ in records)
    assert max(counts.values()) == 1
    assert stats <= set(counts)
