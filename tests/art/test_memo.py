"""The memo protocol's degrade matrix: one suite for every store.

Rows are the ways a consult can fail — the chaos point faults, the entry
is absent, the blob is gone, the blob has rotted — and columns are the
users of the protocol: the run cache (driven through ``Gem5Run.run``),
the checkpoint store (through ``get_or_boot``) and the pipeline's stage
cache (through ``run_pipeline``, which has a blob but neither a chaos
point nor counters of its own).  Every cell must degrade to exactly one
recompute, report itself, and leave a store the *next* caller hits.
"""

import os

import pytest

from repro import chaos, telemetry
from repro.art import ArtifactDB, CheckpointStore, Gem5Run, RunCache, RunStatus
from repro.chaos import FaultRule
from repro.db import connect
from repro.pipeline import run_pipeline

from tests.art.test_checkpoints import make_checkpoint
from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.pipeline import targets
from tests.pipeline.test_executor import CHAIN
from tests.helpers import events_of, parse_manifest_text


@pytest.fixture
def db(tmp_path):
    return ArtifactDB(connect(f"file://{tmp_path}/memodb"))


class User:
    """One caller of a memo store: ``use()`` consults and recomputes on a
    miss; ``recomputes`` holds the ``state()`` each recompute started in."""

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

    noun, key_field = "runcache", "fingerprint"

    def __init__(self, db, request):
        super().__init__(db, RunCache(db))
        self.artifacts = request.getfixturevalue("fs_artifacts")
        self.key = make_run(db, self.artifacts).fingerprint
        user, original = self, Gem5Run._set_status

        def recording(run, status, *args, **kwargs):
            if status is RunStatus.RUNNING:
                user.recomputes.append(user.state())
            return original(run, status, *args, **kwargs)

        request.getfixturevalue("monkeypatch").setattr(
            Gem5Run, "_set_status", recording
        )

    def use(self):
        """Returns the id the entry records when this call stored it."""
        run = make_run(self.db, self.artifacts)
        assert run.run()["success"]
        return run.run_id


class CheckpointUser(User):
    """One boot prefix; a recompute is a boot."""

    noun, key_field, key = "checkpoint", "prefix", "prefix-a"

    def __init__(self, db, request):
        super().__init__(db, CheckpointStore(db))

    def use(self):
        def boot():
            self.recomputes.append(self.state())
            return make_checkpoint()

        assert self.store.get_or_boot(self.key, boot) == make_checkpoint()
        return make_checkpoint().checkpoint_id


@pytest.fixture(params=[RunCacheUser, CheckpointUser], ids=lambda c: c.noun)
def user(request, db):
    return request.param(db, request)


def blob_path(db, blob_id):
    return db.database.files._blob_path(blob_id)


def rot(db, blob_id):
    """Flip two bytes of a blob behind the store's back."""
    with open(blob_path(db, blob_id), "r+b") as handle:
        head = handle.read(2)
        handle.seek(0)
        handle.write(bytes(byte ^ 0xFF for byte in head))


def lose(db, blob_id):
    os.remove(blob_path(db, blob_id))


@pytest.mark.parametrize(
    "reason", ["read-fault", "absent", "blob-missing", "corrupt"]
)
def test_consult_degrades_to_one_recompute_then_heals(db, user, reason):
    rules = []
    if reason != "absent":
        first = user.use()
        blob = user.store.blob_id(user.store.lookup(user.key))
        if reason == "read-fault":
            rules = [FaultRule(f"{user.noun}.get", error="store unreachable")]
        else:
            {"blob-missing": lose, "corrupt": rot}[reason](db, blob)
    del user.recomputes[:]

    with telemetry.session() as session:
        with chaos.injected(seed=29, rules=rules):
            second = user.use()
        counter = session.metrics.counter
        assert counter(f"{user.noun}_misses_total").value(reason=reason) == 1
        [miss] = events_of(session.events, f"{user.noun}.miss")
        assert miss["attributes"] == {
            user.key_field: user.key, "reason": reason,
        }
        errors = events_of(session.events, f"{user.noun}.error")
        assert len(errors) == int(reason in ("read-fault", "blob-missing"))
        corrupt = events_of(session.events, f"{user.noun}.corrupt")
        assert len(corrupt) == int(reason == "corrupt")
        assert counter(f"{user.noun}_corrupt_total").value() == len(corrupt)
        for event in errors + corrupt:
            assert event["attributes"][user.key_field] == user.key
            assert event["attributes"]["error"]

    # Exactly one recompute, and what it found when it started: rot
    # evicts the entry *and* the blob (so re-archiving can re-populate
    # the content address); every other failure leaves the entry alone.
    [(entry, blob_present)] = user.recomputes
    assert (entry is None) == (reason in ("absent", "corrupt"))
    assert blob_present == (reason == "read-fault")
    # The recompute re-archived: a healthy entry, first writer kept
    # unless it was evicted, and the next caller adopts.
    entry, blob_present = user.state()
    assert blob_present
    kept_first = reason in ("read-fault", "blob-missing")
    assert entry[user.store.origin_field] == (first if kept_first else second)
    with telemetry.session() as session:
        user.use()
        assert len(events_of(session.events, f"{user.noun}.hit")) == 1
    assert len(user.recomputes) == 1


@pytest.mark.parametrize(
    "store_class, first_value, value, field, kept",
    [
        (RunCache,
         {"_id": "run-1", "status": "done", "spec": {"artifacts": {}}},
         {"_id": "run-2", "status": "done", "spec": {"artifacts": {}}},
         "run_id", "run-1"),
        (CheckpointStore, make_checkpoint(boot_seconds=10.0),
         make_checkpoint(boot_seconds=99.0), "boot_seconds", 10.0),
    ],
    ids=["runcache", "checkpoint"],
)
def test_racing_store_loses_quietly(
    db, monkeypatch, store_class, first_value, value, field, kept
):
    """Two writers sharing a database (two experiments, each with its own
    broker; two store instances) can both find a key absent.  The unique
    index picks the winner; the loser returns False — it must not raise
    out of a run that has already finished."""
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


@pytest.mark.parametrize("damage", [lose, rot])
def test_stage_cache_reexecutes_the_damaged_stage_then_heals(db, damage):
    """The stage cache reads its blobs through the same verified read:
    a damaged outputs blob costs that one stage, once."""
    manifest = parse_manifest_text(CHAIN)
    targets.reset()
    first = run_pipeline(db, manifest)
    damage(db, first["stages"]["b"]["outputs_digest"])

    second = run_pipeline(db, manifest)
    assert [call[0] for call in targets.CALLS] == ["a", "b", "c", "b"]
    third = run_pipeline(db, manifest)
    targets.reset()
    assert second["counts"]["cache_hits"] == 2
    assert third["status"] == "succeeded"
    assert {s["action"] for s in third["stages"].values()} == {"cache_hit"}
