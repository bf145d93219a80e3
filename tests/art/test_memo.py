"""The memo protocol's degrade matrix: one suite for every store.

Rows are the ways a consult can fail — the chaos point faults, the entry
is absent, the blob is gone, the blob has rotted, the entry's own write
faulted — and columns are the users of the protocol: the run cache
(driven through ``Gem5Run.run``), the checkpoint store (``run_boot_stage``)
and the pipeline's stage cache (``run_pipeline``).  Every cell must
degrade to exactly one recompute, report itself, and leave a store the
*next* caller hits without writing to it.  The run cache's and the
stage cache's entries are their producers' own documents (a run's, a
journaled stage's), so they have no write of their own to fault, and
one more row: that document is gone or no longer qualifies.
"""

import os

import pytest

from repro import chaos, telemetry
from repro.art import (
    ArtifactDB,
    CheckpointStore,
    Gem5Run,
    InputResolver,
    RunCache,
    run_boot_stage,
)
from repro.art import tasks
from repro.art.studies import boot_tests
from repro.chaos import FaultRule
from repro.db import connect
from repro.db.filestore import HEADER, PACK_NAME, FileStore
from repro.pipeline import PipelineJournal, StageCache, run_pipeline

from tests.art.test_checkpoints import make_checkpoint
from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.pipeline import targets
from tests.pipeline.test_executor import CHAIN
from tests.helpers import (
    blob_extent,
    events_of,
    flip_blob_bytes,
    parse_manifest_text,
)


@pytest.fixture
def db(tmp_path):
    return ArtifactDB(connect(f"file://{tmp_path}/memodb"))


class User:
    """One caller of a memo store: ``use()`` consults and recomputes on a
    miss; ``recomputes`` holds the ``state()`` each recompute started in.
    A hit appends ``own_writes`` records to the store's collection."""

    own_writes = 0

    def __init__(self, db, store):
        self.db, self.store, self.recomputes = db, store, []

    def state(self):
        """(entry, whether its blob is present) for this user's key."""
        entry = self.store.lookup(self.key)
        return entry, entry is not None and self.db.has_file(
            self.store.blob_id(entry)
        )


class RunCacheUser(User):
    """Identical runs; a recompute is a simulation."""

    noun, key_field, own_writes = "runcache", "fingerprint", 1

    def __init__(self, db, request):
        super().__init__(db, RunCache(db))
        self.artifacts = request.getfixturevalue("fs_artifacts")
        self.key = make_run(db, self.artifacts).fingerprint
        user, original = self, Gem5Run.begin

        def recording(run, *args, **kwargs):
            attempt = original(run, *args, **kwargs)
            if attempt is not None:
                user.recomputes.append(user.state())
            return attempt

        request.getfixturevalue("monkeypatch").setattr(
            Gem5Run, "begin", recording
        )

    def use(self):
        """Returns the id the entry records when this call stored it."""
        run = make_run(self.db, self.artifacts)
        assert run.run()["success"]
        assert self.db.get_run(run.run_id)["status"] == "done"
        return run.run_id


class CheckpointUser(User):
    """One run's boot prefix through the planner's boot stage; a
    recompute is a boot."""

    noun, key_field = "checkpoint", "prefix"

    def __init__(self, db, request):
        super().__init__(db, CheckpointStore(db))
        self.run = make_run(db, request.getfixturevalue("fs_artifacts"))
        self.key = self.run.prefix
        user, original = self, tasks.boot_checkpoint

        def recording(*args):
            user.recomputes.append(user.state())
            return original(*args)

        request.getfixturevalue("monkeypatch").setattr(
            tasks, "boot_checkpoint", recording
        )

    def use(self):
        (checkpoint,) = run_boot_stage(
            [self.run], self.store, InputResolver(), tasks._Inline()
        ).values()
        return checkpoint.checkpoint_id


class StageCacheUser(User):
    """Stage ``b`` of ``CHAIN``, its neighbours cached; a recompute is
    one execution of it and of nothing else.  A hit journals the
    pipeline document, its three stage documents and its finish."""

    noun, key_field, own_writes = "stagecache", "fingerprint", 5

    def __init__(self, db, request):
        super().__init__(db, StageCache(db))
        self.manifest = parse_manifest_text(CHAIN)
        primed = run_pipeline(db, self.manifest)
        self.key = primed["stages"]["b"]["fingerprint"]
        assert self.store.evict(self.key) == 1
        user, original = self, targets.add_inputs

        def recording(ctx):
            assert ctx.stage.name == "b"
            user.recomputes.append(user.state())
            return original(ctx)

        request.getfixturevalue("monkeypatch").setattr(
            targets, "add_inputs", recording
        )

    def use(self):
        result = run_pipeline(self.db, self.manifest)
        assert result["status"] == "succeeded"
        journal = PipelineJournal(self.db).stages_of(result["pipeline_id"])
        return journal[1]["_id"]  # a, b, c


@pytest.fixture
def user(request, db):
    return request.param(db, request)


def about_key(session, user, what):
    """The ``<noun>.<what>`` events that name this user's key."""
    events = events_of(session.events, f"{user.noun}.{what}")
    return [e for e in events if e["attributes"][user.key_field] == user.key]


def log_bytes(db, collection):
    return db.database.storage_stats()["collections"][collection]["wal_bytes"]


def rot(db, blob_id):
    """Flip two bytes of a blob inside the pack, behind the store's
    back."""
    flip_blob_bytes(db.database.files.root, blob_id, count=2)


def lose(db, blob_id):
    """Cut the blob's record out of the pack behind the store's back —
    a pack restored from before the blob was written — and reopen the
    store, which reads the pack's records when it opens."""
    files = db.database.files
    files.close()
    path = os.path.join(files.root, PACK_NAME)
    start, length = blob_extent(files.root, blob_id)
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: start - HEADER.size] + data[start + length :])
    db.database._files = FileStore(files.root, files.durability)


@pytest.mark.parametrize(
    "user, reason",
    [(cls, reason) for cls in (RunCacheUser, CheckpointUser, StageCacheUser)
     for reason in ("read-fault", "absent", "blob-missing", "corrupt",
                    "store-fault")
     if not (cls.own_writes and reason == "store-fault")],
    ids=lambda value: getattr(value, "noun", value),
    indirect=["user"],
)
def test_consult_degrades_to_one_recompute_then_heals(db, user, reason):
    collection, mine = user.store.collection_name, {user.key_field: user.key}
    writes_fault = FaultRule("wal.append", match={"collection": collection})
    rules, missed = [], reason
    if reason == "store-fault":
        # The write that would store the entry faults: the computation
        # keeps its result (a run says ``done``); the shortcut is missing.
        rules, missed = [writes_fault], "absent"
    elif reason != "absent":
        first = user.use()
        blob = user.store.blob_id(user.store.lookup(user.key))
        if reason == "read-fault":
            rules = [FaultRule(f"{user.noun}.get", error="down", match=mine)]
        else:
            {"blob-missing": lose, "corrupt": rot}[reason](db, blob)
    del user.recomputes[:]

    with telemetry.session() as session:
        with chaos.injected(seed=29, rules=rules):
            second = user.use()
        counter = session.metrics.counter
        assert counter(f"{user.noun}_misses_total").value(reason=missed) == 1
        [miss] = events_of(session.events, f"{user.noun}.miss")
        assert miss["attributes"] == dict(mine, reason=missed)
        errors = about_key(session, user, "error")
        assert len(errors) == int(
            reason in ("read-fault", "blob-missing", "store-fault")
        )
        corrupt = about_key(session, user, "corrupt")
        assert len(corrupt) == int(reason == "corrupt")
        assert counter(f"{user.noun}_corrupt_total").value() == len(corrupt)
        for event in errors + corrupt:
            assert event["attributes"]["error"]

    # Exactly one recompute, and what it found when it started: rot
    # evicts the entry *and* the blob (so re-archiving can re-populate
    # the content address); every other failure leaves the entry alone.
    [(entry, blob_present)] = user.recomputes
    assert (entry is None) == (reason in ("absent", "corrupt", "store-fault"))
    assert blob_present == (reason == "read-fault")
    # The checkpoint store deletes a rotten entry; the others revoke it.
    revoked = user.store.collection.count({"cache_revoked": "corrupt"})
    assert bool(revoked) == (
        reason == "corrupt" and not isinstance(user.store, CheckpointStore))
    if reason == "store-fault":
        assert user.state() == (None, False)
        second = user.use()
        del user.recomputes[1:]
    # The recompute re-archived: a healthy entry, first writer kept
    # unless it was evicted, and the next caller adopts — by reading:
    # no write of the store's own is attempted.
    entry, blob_present = user.state()
    assert blob_present
    kept_first = reason in ("read-fault", "blob-missing")
    assert entry[user.store.origin_field] == (first if kept_first else second)
    adopts_by_reading(db, user)


def adopts_by_reading(db, user):
    """The next caller hits, and its only writes to the store's
    collection are its ``own_writes``: with none, the log does not grow."""
    collection = user.store.collection_name
    writes_fault = FaultRule(
        "wal.append", match={"collection": collection}, after=user.own_writes
    )
    before = log_bytes(db, collection)
    with telemetry.session() as session:
        with chaos.injected(seed=37, rules=[writes_fault]) as injector:
            user.use()
        [stats] = injector.report().values()
        assert stats["seen"] == user.own_writes
        assert len(about_key(session, user, "hit")) == 1
    assert len(user.recomputes) == 1
    assert (log_bytes(db, collection) == before) is (user.own_writes == 0)


@pytest.mark.parametrize(
    "user, forged",
    [
        pytest.param(RunCacheUser, {"status": "failed"}, id="failed"),
        pytest.param(RunCacheUser, None, id="gone"),
        pytest.param(
            StageCacheUser, {"gates_ok": False},
            id="stagecache-failed-gates",
        ),
        pytest.param(StageCacheUser, None, id="stagecache-gone"),
    ],
    indirect=["user"],
)
def test_a_lost_producer_misses_then_heals(db, user, forged):
    """The rows of the stores whose entry is a producer's document: when
    it is gone (``forged`` None) or forged not to qualify (a run not
    ``done``, a stage whose gates failed), nothing answers the key — the
    consult misses as ``absent``, the recompute is the new producer, and
    the next caller adopts it."""
    first, producers = user.use(), user.store.collection
    if forged is None:
        assert producers.delete_one({"_id": first})
    else:
        assert producers.update_one({"_id": first}, {"$set": forged})
    del user.recomputes[:]
    with telemetry.session() as session:
        second = user.use()
        counter = session.metrics.counter
        assert counter(f"{user.noun}_misses_total").value(reason="absent") == 1
        [miss] = events_of(session.events, f"{user.noun}.miss")
        assert miss["attributes"] == {
            user.key_field: user.key, "reason": "absent"
        }
    [(entry, _)] = user.recomputes
    assert entry is None
    entry, blob_present = user.state()
    assert blob_present
    assert entry["_id"] == second
    adopts_by_reading(db, user)


def test_a_warm_sweep_appends_nothing_to_the_run_cache(db):
    """The quick Fig 8 grid twice on one ``file://`` database: the second
    launch adopts all 48 results, leaves every producer's document as it
    was, and there is no cache collection to grow."""
    boot_tests(db, quick=True).launch(substrate="inline")
    producers = db.runs.find()
    boot_tests(db, quick=True).launch(substrate="inline")
    assert db.runs.find({"cache_hit": {"$exists": False}}) == producers
    assert db.runs.count({"cache_hit": True}) == 48
    assert "run_cache" not in db.database.storage_stats()["collections"]


@pytest.mark.parametrize(
    "store_class, first_value, value, field, kept",
    [
        (CheckpointStore, make_checkpoint(boot_seconds=10.0),
         make_checkpoint(boot_seconds=99.0), "boot_seconds", 10.0),
    ],
    ids=["checkpoint"],
)
def test_racing_store_loses_quietly(
    db, monkeypatch, store_class, first_value, value, field, kept
):
    """Two writers sharing a database (two experiments, each with its own
    broker; two store instances) can both find a key absent.  The unique
    index picks the winner; the loser returns False — it must not raise
    out of work that has already finished."""
    store, rival = store_class(db), store_class(db)
    assert rival.store("k" * 64, first_value) is True
    # The loser's view is the race window's: anything it reads before
    # inserting still says "absent".
    monkeypatch.setattr(
        type(store.collection), "find_one", lambda *args, **kwargs: None
    )
    assert store.store("k" * 64, value) is False
    monkeypatch.undo()
    assert store.lookup("k" * 64)[field] == kept
    assert store.invalidate("k" * 8) == 1  # a prefix of its one token


def test_the_earliest_stage_producer_answers_until_revoked(db):
    """Two gate-passing executions of one stage fingerprint (the second
    forced by ``use_cache=False``) are two producers in the journal: the
    first answers, and once it is revoked, the second does."""
    manifest = parse_manifest_text(CHAIN)
    first = run_pipeline(db, manifest)["stages"]["b"]
    second = run_pipeline(db, manifest, use_cache=False)["stages"]["b"]
    assert first["fingerprint"] == second["fingerprint"]
    store = StageCache(db)
    assert store.lookup(first["fingerprint"])["_id"] == first["_id"]
    result = run_pipeline(db, manifest)
    assert result["stages"]["b"]["cache_source"] == first["_id"]
    assert store.collection.update_one(
        {"_id": first["_id"]}, {"$set": {"cache_revoked": "invalidated"}}
    )
    assert store.lookup(first["fingerprint"])["_id"] == second["_id"]
    result = run_pipeline(db, manifest)
    assert result["stages"]["b"]["cache_source"] == second["_id"]
