"""Tests for the prefix-keyed CheckpointStore: storage, gc, and
single-flight boot leadership (the staged pipeline's stage 1).  How a
consult degrades is the memo protocol's matrix, ``test_memo.py``."""

import threading
import time

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


def test_get_or_boot_single_flight(store):
    """Acceptance: N concurrent same-prefix callers produce exactly one
    boot; everyone adopts what the leader stored."""
    boots = []
    barrier = threading.Barrier(8)

    def boot():
        boots.append(threading.get_ident())
        time.sleep(0.05)  # keep the leader in flight while others race
        return make_checkpoint()

    results = [None] * 8

    def contender(slot):
        barrier.wait()
        results[slot] = store.get_or_boot("prefix-a", boot)

    with telemetry.session() as session:
        threads = [
            threading.Thread(target=contender, args=(slot,))
            for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(boots) == 1
        boots_counter = session.metrics.counter("checkpoint_boots_total")
        assert boots_counter.value() == 1
    expected = make_checkpoint()
    assert all(result == expected for result in results)


def test_get_or_boot_overtaken_after_a_miss_does_not_boot_again(store):
    """A caller's consult misses, and before it acts on that miss another
    caller boots, stores and retires.  Acting on the stale miss would
    boot the prefix a second time."""
    boots = []

    def boot():
        boots.append(1)
        return make_checkpoint()

    original, overtaker = store.get, []

    def get_then_be_overtaken(prefix):
        found = original(prefix)
        if not overtaker:
            overtaker.append(
                threading.Thread(
                    target=store.get_or_boot, args=(prefix, boot)
                )
            )
            overtaker[0].start()
            # Either it finishes a whole boot, or it is waiting for us.
            overtaker[0].join(timeout=0.3)
        return found

    store.get = get_then_be_overtaken
    assert store.get_or_boot("prefix-a", boot) == make_checkpoint()
    overtaker[0].join(timeout=5.0)
    assert not overtaker[0].is_alive()
    assert len(boots) == 1


def test_get_or_boot_skips_boot_on_hit(store):
    store.store("prefix-a", make_checkpoint())

    def boot():
        raise AssertionError("a stored prefix must not boot again")

    assert store.get_or_boot("prefix-a", boot) is not None


def test_get_or_boot_unbootable_platform_degrades(store):
    """A boot that fails (fault model) yields None for the whole cohort
    — attempted exactly once, stored nowhere."""
    boots = []

    def boot():
        boots.append(1)
        return None

    results = [store.get_or_boot("prefix-a", boot) for _ in range(3)]
    assert results == [None, None, None]
    # Each sequential caller re-attempts (nothing was stored), but
    # within one contention window only the leader boots — covered by
    # the single-flight test above.
    assert len(boots) == 3
    assert store.lookup("prefix-a") is None


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


def test_gc_racing_inflight_boot_keeps_live_prefix(db, store):
    """gc() running while a live prefix's boot is still in flight must
    not disturb the leader: the checkpoint it stores afterwards survives
    and a follower adopts it without booting again."""
    store.store("orphan", make_checkpoint(num_cpus=8))
    boot_started = threading.Event()
    release_boot = threading.Event()

    def slow_boot():
        boot_started.set()
        assert release_boot.wait(timeout=5.0)
        return make_checkpoint(num_cpus=1)

    leader_result = []

    def leader():
        leader_result.append(store.get_or_boot("inflight", slow_boot))

    thread = threading.Thread(target=leader)
    thread.start()
    assert boot_started.wait(timeout=5.0)
    # Mid-boot sweep: "inflight" is in the live set, "orphan" is not.
    assert store.gc(live_prefixes={"inflight"}) == 1
    release_boot.set()
    thread.join(timeout=5.0)
    assert not thread.is_alive()

    assert leader_result == [make_checkpoint(num_cpus=1)]
    assert store.lookup("inflight") is not None
    assert store.lookup("orphan") is None

    def follower_boot():
        raise AssertionError("follower must adopt the leader's work")

    assert store.get_or_boot("inflight", follower_boot) is not None
