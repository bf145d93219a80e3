"""Model-based crash testing of the storage engine (docs/storage.md).

Random operation sequences run against a strict file-backed collection
and a plain-dict model, one fault per example: a db chaos point firing
``crash`` or ``raise``, a WAL tail torn the ways a crash mid-append
tears it, or a flipped segment byte.  The oracle: after a crash the
reopened state is the model up to the last acknowledged operation (the
in-flight one present or absent, nothing else differs); after a raise
the live collection, the model and a reopen agree; the database always
opens and still accepts appends; a second reopen changes nothing and
truncates nothing; compaction changes no query result; damaged sealed
bytes raise.

Tier-1 runs a fixed derandomized budget; CI's ``db`` job passes
``--hypothesis-profile ci`` (``conftest.py``) for 2 000 random examples.
"""

import contextlib
import copy
import pathlib
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

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
POINTS = ("wal.append", "compact.publish", "compact.truncate")
#: One fault per example: none, a point firing ``crash`` or ``raise``, a
#: tail cut inside the in-flight frame's header, inside its payload, on
#: its boundary or bit-flipped, or a rotten segment byte.
FAULTS = (
    [None]
    + [(point, action) for point in POINTS for action in ("crash", "raise")]
    + [("tear", cut) for cut in ("header", "payload", "boundary", "flipped")]
    + [("rot", "segment")]
)
#: The write a torn tail interrupts.
IN_FLIGHT = {"op": "insert", "doc": {"_id": "in-flight"}}
#: The faults that fired, for the coverage check at the bottom.
FIRED = set()

by_id = st.sampled_from("abcdef").map(lambda doc_id: {"_id": doc_id})
keys = st.one_of(st.none(), st.integers(0, 3))  # unique-indexed, sparse
tags = st.sampled_from(["x", "y"])
fields = st.fixed_dictionaries(
    {"k": keys, "t": tags, "pad": st.text("x", max_size=40)}
)
#: An operation is a ``Collection`` method and its arguments.
operations = st.one_of(
    st.tuples(st.just("insert_one"), st.builds(dict.__or__, by_id, fields)),
    st.tuples(st.just("replace_one"), by_id, fields),
    st.tuples(st.just("update_one"), by_id, st.sampled_from([
        {"$set": {"k": 0}}, {"$set": {"k": 1}}, {"$set": {"k": None}},
        {"$set": {"t": "y"}}, {"$inc": {"n": 1}}, {"$push": {"tags": "x"}},
        {"$unset": {"k": ""}}, {"$unset": {"t": ""}},
    ])),
    st.tuples(st.just("delete_one"), by_id),
    st.tuples(st.just("create_index"), st.sampled_from(["t", "n", "k"])),
    st.sampled_from([("create_unique_index", "k"), ("compact",), ("reopen",)]),
)
#: A fixed walk on which every fault fires at its first chance — run
#: under each before the drawn examples, so what tier-1 injects does not
#: depend on what the generator happens to draw.  Its fourth record
#: triggers the first compaction with "a" deleted and re-inserted before
#: "b" in the WAL: replayed over the segment it produced, a replay that
#: did not re-place inserts would come back as b, a.
WALK = [
    ("insert_one", {"_id": "a"}),
    ("delete_one", {"_id": "a"}),
    ("insert_one", {"_id": "a"}),
    ("insert_one", {"_id": "b"}),
    ("create_unique_index", "k"),
    ("create_index", "k"),  # both kinds on one field: neither is lost
    ("update_one", {"_id": "a"}, {"$set": {"k": 1}}),
    ("compact",),
    ("insert_one", {"_id": "c", "k": 1, "t": "x", "pad": "x" * 40}),
]


def under_every_fault(test):
    for fault in FAULTS:
        test = example(ops=WALK, fault=fault, seed=0)(test)
    return test


@pytest.fixture(autouse=True, scope="module")
def frequent_compactions():
    with pytest.MonkeyPatch.context() as patch:
        set_engine_knobs(patch, compact_bytes=128)
        yield


def budget():
    ci = settings.get_profile("ci")
    if settings.default is ci:
        return ci
    return settings(max_examples=120, derandomize=True, deadline=None)


def predict(docs, indexes, op):
    """The model: ``(docs, indexes)`` after ``op`` on plain dicts, or
    ``DuplicateError`` where the engine must refuse."""
    docs, indexes = copy.deepcopy(docs), set(indexes)
    verb, *args = op
    written = None
    if verb == "insert_one":
        if args[0]["_id"] in docs:
            raise DuplicateError("_id")
        written = dict(args[0])
    elif verb == "replace_one" and args[0]["_id"] in docs:
        written = {**args[0], **args[1]}
    elif verb == "update_one" and args[0]["_id"] in docs:
        written = docs[args[0]["_id"]]
        ((operator, change),) = args[1].items()
        ((field, value),) = change.items()
        if operator == "$set":
            written[field] = value
        elif operator == "$inc":
            written[field] = written.get(field, 0) + value
        elif operator == "$push":
            written[field] = written.get(field, []) + [value]
        else:
            written.pop(field, None)
    elif verb == "delete_one":
        docs.pop(args[0]["_id"], None)
    elif verb == "create_index":
        indexes.add((args[0], "secondary"))
    elif verb == "create_unique_index":
        indexes.add(("k", "unique"))
    if written is not None:
        docs[written["_id"]] = written
    held = [doc["k"] for doc in docs.values() if doc.get("k") is not None]
    if ("k", "unique") in indexes and len(held) != len(set(held)):
        raise DuplicateError("k")
    return docs, indexes


def state(db):
    """What a reader sees: the documents, in ``find()`` order, by id —
    and the indexes, as ``(field, kind)`` pairs."""
    coll = db["c"]
    return {doc["_id"]: doc for doc in coll.find()}, {
        (field, kind)
        for field, kinds in coll.index_fields().items()
        for kind in kinds.split("+")
    }


def assert_same(seen, expected):
    assert seen == expected
    assert list(seen[0]) == list(expected[0])  # dicts compare unordered


def assert_between(seen, before, after):
    """An interrupted operation happened or did not, per document;
    nothing else moved."""
    for doc_id in set(seen[0]) | set(before[0]) | set(after[0]):
        assert seen[0].get(doc_id) in (
            before[0].get(doc_id), after[0].get(doc_id)
        ), doc_id
    assert seen[1] in (before[1], after[1])


def flipped(data, seed):
    data = bytearray(data)
    data[seed % len(data)] ^= 0x40
    return bytes(data)


@under_every_fault
@given(
    ops=st.lists(operations, min_size=6, max_size=30),
    fault=st.sampled_from(FAULTS),
    seed=st.integers(0, 999),  # places the fault: occurrence, byte
)
@settings(budget())
def test_engine_matches_model(ops, fault, seed):
    rules = []
    if fault and fault[0] in POINTS:
        rules = [FaultRule(*fault, after=seed % 4, times=1)]
    with tempfile.TemporaryDirectory() as root, contextlib.ExitStack() as dbs:

        def reopen():
            return dbs.enter_context(
                Database("model", root=root, durability="strict")
            )

        db, model, interrupted = reopen(), ({}, set()), None
        state(db)  # the collection exists from the start
        with chaos.injected(seed=0, rules=rules) as injector:
            for op in ops:
                try:
                    after = predict(*model, op)
                except DuplicateError:
                    after = None
                try:
                    if op == ("reopen",):
                        db.close()
                        db = reopen()
                    elif op == ("compact",):
                        db.compact()
                    else:
                        getattr(db["c"], op[0])(*op[1:])
                except DuplicateError:
                    assert after is None, op
                except FaultInjectedError:
                    # The op failed, part-way at most; what the caller
                    # can read now is what must be on disk.
                    seen = state(db)
                    assert_between(seen, model, after or model)
                    model = seen
                except WorkerCrashed:
                    interrupted = (model, after or model)
                    break
                else:
                    assert after is not None, op
                    model = after
                assert_same(state(db), model)
        FIRED.update(
            tuple(key.split(":")[1:])
            for key, stats in injector.report().items()
            if stats["fired"]
        )

        wal, segment = (
            pathlib.Path(root, "engine", "c", name)
            for name in ("wal.log", "segment.seg")
        )
        torn = 0
        if fault and fault[0] == "tear":
            frame = encode_record(IN_FLIGHT)
            piece = {
                "header": frame[: 1 + seed % 7],
                "payload": frame[: 8 + seed % (len(frame) - 8)],
                "boundary": frame,
                "flipped": flipped(frame, seed),
            }[fault[1]]
            wal.write_bytes(wal.read_bytes() + piece)
            if piece == frame:  # whole: the write happened after all
                model[0]["in-flight"] = IN_FLIGHT["doc"]
            else:
                torn = len(piece)
            FIRED.add(fault)
        elif fault and fault[0] == "rot" and segment.exists():
            if segment.stat().st_size:  # all-deleted compacts to nothing
                segment.write_bytes(flipped(segment.read_bytes(), seed))
                FIRED.add(fault)
                with pytest.raises(CorruptRecordError):
                    reopen()
                return

        recovered = reopen()  # the "crash": nothing was closed first
        if interrupted:
            assert_between(state(recovered), *interrupted)
        else:
            assert_same(state(recovered), model)
        assert recovered.recovery_report()["c"]["truncated_bytes"] == torn
        recovered["c"].insert_one({"_id": "probe"})
        again = reopen()  # replaying what is on disk once more
        assert_same(state(again), state(recovered))
        assert again.recovery_report()["c"]["truncated_bytes"] == 0


def test_every_fault_was_injected():
    """The run above fired every point x action and tore every way."""
    assert FIRED >= set(FAULTS[1:])
