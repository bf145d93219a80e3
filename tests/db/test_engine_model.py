"""Model-based crash testing of the storage engine.

Random operation sequences run against a file-backed collection under
``durability="strict"`` and against a plain-dict model, with one fault
drawn per example: a db chaos point firing ``crash`` or ``raise`` at a
drawn occurrence, a torn WAL tail of every byte-offset class, or a
flipped byte in sealed data.  The oracle:

- after a **crash** the reopened state is the model up to the last
  acknowledged operation (the in-flight one may be present or absent,
  nothing else differs);
- after a **raise** the live collection, the model and a reopen agree,
  and the store still accepts appends;
- the database always opens, unique indexes hold, and a second reopen
  is a fixed point with nothing left to truncate;
- compaction, wherever it happens, changes no query result;
- damaged sealed bytes raise instead of replaying.

Tier-1 runs a fixed derandomized budget; CI's ``db`` job passes
``--hypothesis-profile ci`` (``tests/conftest.py``) for 2 000 random
examples.
"""

import copy
import glob
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import chaos
from repro.chaos import FaultRule, WorkerCrashed
from repro.common.errors import (
    CorruptRecordError,
    DuplicateError,
    FaultInjectedError,
)
from repro.db import Database
from repro.db.engine.wal import encode_record
from tests.helpers import set_engine_knobs

#: Every chaos point the collection store fires.
POINTS = ("wal.append", "segment.seal", "compact.publish", "compact.manifest")
#: Where a crash mid-append can cut the in-flight frame.
TEARS = ("header", "payload", "boundary", "flipped")
#: The write a torn tail interrupts.
IN_FLIGHT = {"op": "insert", "doc": {"_id": "in-flight"}}

#: Faults that actually fired, for the coverage check below.
FIRED = set()


@pytest.fixture(autouse=True, scope="module")
def small_thresholds():
    """Housekeeping every few records, so every example crosses it."""
    with pytest.MonkeyPatch.context() as patch:
        set_engine_knobs(patch, auto_compact=False, seal_bytes=256)
        yield


def budget():
    ci = settings.get_profile("ci")
    if settings.default is ci:
        return ci
    return settings(max_examples=150, derandomize=True, deadline=None)


# ------------------------------------------------------------ strategies

ids = st.sampled_from("abcdef")
keys = st.one_of(st.none(), st.integers(0, 3))  # unique-indexed, sparse
tags = st.sampled_from(["x", "y"])
fields = st.fixed_dictionaries(
    {"k": keys, "t": tags, "pad": st.text("x", max_size=40)}
)
operations = st.one_of(
    st.tuples(st.just("insert"), ids, fields),
    st.tuples(st.just("replace"), ids, fields),
    st.tuples(st.just("update"), ids, st.just("$set"), st.just("k"), keys),
    st.tuples(st.just("update"), ids, st.just("$set"), st.just("t"), tags),
    st.tuples(st.just("update"), ids, st.just("$inc"), st.just("n"),
              st.just(1)),
    st.tuples(st.just("update"), ids, st.just("$push"), st.just("tags"),
              tags),
    st.tuples(st.just("update"), ids, st.just("$unset"),
              st.sampled_from(["k", "t"]), st.just("")),
    st.tuples(st.just("delete_one"), ids),
    st.tuples(st.just("delete_many"), tags),
    st.tuples(st.just("index"), st.sampled_from(["t", "n"])),
    st.just(("unique", "k")),
    st.just(("compact",)),
    st.just(("reopen",)),
)
faults = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(POINTS), st.sampled_from(["crash", "raise"]),
              st.integers(0, 4)),
    st.tuples(st.just("tear"), st.sampled_from(TEARS), st.integers(0, 999)),
    st.tuples(st.just("rot"), st.just("sealed"), st.integers(0, 999)),
)


# ----------------------------------------------------------------- model


def clashes(docs, indexes, doc):
    return (
        indexes.get("k") == "unique"
        and doc.get("k") is not None
        and any(
            other.get("k") == doc["k"]
            for doc_id, other in docs.items()
            if doc_id != doc["_id"]
        )
    )


def predict(docs, indexes, op):
    """``op`` applied to the plain-dict model: the new ``(docs,
    indexes)``, or ``DuplicateError`` where the engine must refuse."""
    docs, indexes = copy.deepcopy(docs), dict(indexes)
    kind, *args = op
    doc = None
    if kind == "insert":
        if args[0] in docs:
            raise DuplicateError(args[0])
        doc = {"_id": args[0], **args[1]}
    elif kind == "replace" and args[0] in docs:
        doc = {"_id": args[0], **args[1]}
    elif kind == "update" and args[0] in docs:
        doc_id, operator, field, value = args
        doc = docs[doc_id]
        if operator == "$set":
            doc[field] = value
        elif operator == "$inc":
            doc[field] = doc.get(field, 0) + value
        elif operator == "$push":
            doc[field] = doc.get(field, []) + [value]
        else:
            doc.pop(field, None)
    elif kind == "delete_one":
        docs.pop(args[0], None)
    elif kind == "delete_many":
        docs = {i: d for i, d in docs.items() if d.get("t") != args[0]}
    elif kind == "index":
        indexes.setdefault(args[0], "secondary")
    elif kind == "unique":
        if any(clashes(docs, {"k": "unique"}, d) for d in docs.values()):
            raise DuplicateError("k")
        indexes["k"] = "unique"
    if doc is not None:
        if clashes(docs, indexes, doc):
            raise DuplicateError("k")
        docs[doc["_id"]] = doc
    return docs, indexes


# ---------------------------------------------------------------- engine


def open_db(root):
    return Database("model", root=root, durability="strict")


def perform(db, op):
    coll = db["c"]
    kind, *args = op
    if kind == "insert":
        coll.insert_one({"_id": args[0], **args[1]})
    elif kind == "replace":
        coll.replace_one({"_id": args[0]}, args[1])
    elif kind == "update":
        doc_id, operator, field, value = args
        coll.update_one({"_id": doc_id}, {operator: {field: value}})
    elif kind == "delete_one":
        coll.delete_one({"_id": args[0]})
    elif kind == "delete_many":
        coll.delete_many({"t": args[0]})
    elif kind == "index":
        coll.create_index(args[0])
    elif kind == "unique":
        coll.create_unique_index(args[0])
    else:
        db.compact()


def state(db):
    """What a reader sees: every document by id, and the indexes."""
    coll = db["c"]
    return {doc["_id"]: doc for doc in coll.find()}, coll.index_fields()


def assert_between(seen, before, after):
    """An interrupted operation happened or did not, per document;
    nothing else moved."""
    for doc_id in set(seen[0]) | set(before[0]) | set(after[0]):
        assert seen[0].get(doc_id) in (
            before[0].get(doc_id), after[0].get(doc_id)
        ), doc_id
    assert seen[1] in (before[1], after[1])


def damage(root, kind, where, seed):
    """Tear the WAL tail as a crash mid-append would, or rot one sealed
    byte; returns how many torn bytes recovery must truncate (None when
    the damage must fail the open)."""
    folder = os.path.join(root, "engine", "c")
    if kind == "rot":
        sealed = [
            path for path in glob.glob(os.path.join(folder, "*.seg"))
            if os.path.getsize(path)
        ]
        for path in sealed:
            with open(path, "r+b") as handle:
                handle.seek(seed % os.path.getsize(path))
                byte = handle.read(1)
                handle.seek(-1, os.SEEK_CUR)
                handle.write(bytes([byte[0] ^ 0x40]))
        return None if sealed else 0
    frame = bytearray(encode_record(IN_FLIGHT))
    if where == "header":
        frame = frame[: 1 + seed % 7]
    elif where == "payload":
        frame = frame[: 8 + seed % (len(frame) - 8)]
    elif where == "flipped":
        frame[seed % len(frame)] ^= 0x40
    with open(os.path.join(folder, "wal.log"), "ab") as handle:
        handle.write(frame)
    return 0 if where == "boundary" else len(frame)


@given(ops=st.lists(operations, max_size=25), fault=faults)
@settings(budget())
def test_engine_matches_model(ops, fault):
    rules = []
    if fault and fault[0] in POINTS:
        point, action, skip = fault
        rules = [FaultRule(point, action=action, after=skip, times=1)]
    opened = []

    def reopen(root):
        opened.append(open_db(root))
        return opened[-1]

    with tempfile.TemporaryDirectory() as root:
        try:
            model = ({}, {})
            db = reopen(root)
            state(db)  # the collection exists from the start
            interrupted = None
            with chaos.injected(seed=0, rules=rules) as injector:
                for op in ops:
                    if op == ("reopen",):
                        db.close()
                        db = reopen(root)
                        assert state(db) == model
                        continue
                    try:
                        after = predict(*model, op)
                    except DuplicateError:
                        after = None
                    try:
                        perform(db, op)
                    except DuplicateError:
                        assert after is None, op
                    except FaultInjectedError:
                        # The op failed part-way at most; whatever the
                        # caller can now read is what must be on disk.
                        seen = state(db)
                        assert_between(seen, model, after or model)
                        model = seen
                    except WorkerCrashed:
                        interrupted = (model, after or model)
                        break
                    else:
                        assert after is not None, op
                        model = after
                    assert state(db) == model, op
            for key, stats in injector.report().items():
                if stats["fired"]:
                    FIRED.add(tuple(key.split(":")[1:]))

            torn = 0
            if interrupted is None and fault and fault[0] in ("tear", "rot"):
                torn = damage(root, *fault)
                if torn is None:
                    FIRED.add("rot")
                    with pytest.raises(CorruptRecordError):
                        open_db(root)
                    return
                if fault[0] == "tear":
                    FIRED.add(fault[:2])
                if fault[1] == "boundary":
                    model[0]["in-flight"] = IN_FLIGHT["doc"]

            # "Crash": reopen from disk without closing.
            recovered = reopen(root)
            if interrupted is not None:
                assert_between(state(recovered), *interrupted)
                model = state(recovered)
            assert state(recovered) == model
            assert list(state(recovered)[0]) == list(model[0])
            report = recovered.recovery_report()["c"]
            assert report["truncated_bytes"] == torn
            recovered["c"].insert_one({"_id": "probe"})
            # Replaying what is on disk again changes nothing.
            again = reopen(root)
            assert state(again) == state(recovered)
            assert list(state(again)[0]) == list(state(recovered)[0])
            assert again.recovery_report()["c"]["truncated_bytes"] == 0
        finally:
            for database in opened:
                database.close()


def test_budget_fired_every_fault():
    """The run above injected every point x action and every tear."""
    expected = {(point, action) for point in POINTS
                for action in ("crash", "raise")}
    expected |= {("tear", where) for where in TEARS} | {"rot"}
    assert FIRED >= expected
