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
bytes raise; an update the engine must refuse changes nothing.  A
reopen declares the indexes declared so far, as owning code does, so a
unique index still refuses duplicates across reopens and compactions.

Updates are drawn as one to three (operator, path) steps over nested,
overlapping and ``_id`` paths, because an ``update`` record carries
their *effect*.  What the model is there to catch is an effect that is
not the update (a path through a non-dict step, ``q.a`` then ``q``) or
one that is not absolute — which shows when a WAL is replayed over the
segment it was just folded into (``compact.truncate``).

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
    ValidationError,
)
from repro.db import Database
from repro.db.engine.wal import encode_record, new_deflater
from tests.helpers import set_engine_knobs

#: Every chaos point the collection store fires.
POINTS = ("wal.append", "compact.publish", "compact.truncate")
#: One fault per example: none, a point firing ``crash`` or ``raise``, a
#: tail cut inside the in-flight frame's header, inside its payload, on
#: its boundary or bit-flipped — the frame an ``insert`` or an ``update``
#: — or a rotten segment byte.
FAULTS = (
    [None]
    + [(point, action) for point in POINTS for action in ("crash", "raise")]
    + [
        ("tear", cut, frame)
        for cut in ("header", "payload", "boundary", "flipped")
        for frame in ("insert", "update")
    ]
    + [("rot", "segment")]
)
#: The write a torn tail interrupts: an insert, or (given a document to
#: aim it at) the ``update`` record that ``IN_FLIGHT_UPDATE`` is logged as.
IN_FLIGHT = {"op": "insert", "doc": {"_id": "in-flight"}}
IN_FLIGHT_UPDATE = {"$set": {"r.s": 7}, "$unset": {"pad": ""}}
IN_FLIGHT_EFFECT = {"op": "update", "set": {"r.s": 7}, "unset": ["pad"]}
#: The faults that fired and the kinds of update that ran, for the
#: coverage checks at the bottom.
FIRED = set()
DRAWN = set()

by_id = st.sampled_from("abcdef").map(lambda doc_id: {"_id": doc_id})
keys = st.one_of(st.none(), st.integers(0, 3))  # unique-indexed, sparse
tags = st.sampled_from(["x", "y"])
fields = st.fixed_dictionaries(
    {"k": keys, "t": tags, "pad": st.text("x", max_size=40)}
)
#: One operator on one path.  ``k`` keeps its index's value space; ``t``
#: is a string until ``t.u`` digs through it; ``q``, ``q.a``, ``q.a.b``
#: overlap.
steps = st.one_of(
    st.tuples(st.just("$set"), st.just("k"), keys),
    st.tuples(st.just("$set"), st.just("t"), tags),
    st.tuples(
        st.just("$set"),
        st.sampled_from(
            ["q", "q.a", "q.a.b", "r.s", "t.u", "_id", "_id.x", "n", "r.l"]
        ),
        st.sampled_from([0, 1, {}, {"a": 1}, {"a": {"b": 2}}, ["x", "y"]]),
    ),
    st.tuples(
        st.just("$unset"),
        st.sampled_from(["k", "t", "n", "q", "q.a", "r", "r.s", "t.u", "_id"]),
        st.just(""),
    ),
)


def as_update(drawn_steps):
    """``{operator: {path: argument}}``, operators in first-drawn order."""
    update = {}
    for operator, path, argument in drawn_steps:
        update.setdefault(operator, {})[path] = argument
    return update


#: An operation is a ``Collection`` method and its arguments.
operations = st.one_of(
    st.tuples(st.just("insert_one"), st.builds(dict.__or__, by_id, fields)),
    st.tuples(st.just("replace_one"), by_id, fields),
    st.tuples(
        st.just("update_one"),
        by_id,
        st.lists(steps, min_size=1, max_size=3).map(as_update),
    ),
    st.tuples(st.just("delete_one"), by_id),
    st.tuples(st.just("create_index"), st.sampled_from(["t", "n", "k"])),
    st.sampled_from([("create_unique_index", "k"), ("compact",), ("reopen",)]),
)
#: A fixed walk on which every fault fires at its first, second and
#: third chance — run under each before the drawn examples, so what
#: tier-1 injects does not depend on what the generator happens to draw.
#: It compacts three times, each time with something else in the WAL
#: that a replay over the segment just published could get wrong:
#:
#: 1. "a" deleted and re-inserted before "b" — a replay that did not
#:    re-place inserts would come back as b, a;
#: 2. two updates of "b" that count ``n`` up and extend ``r.l`` — logged
#:    as the step they took, not the values they left, they would apply
#:    again to a number and a list that already hold them (n 4, not 2);
#: 3. an update of "b", then its deletion — over a segment that no
#:    longer holds "b", an update that is not damage.
A, B = {"_id": "a"}, {"_id": "b"}
WALK = [
    ("insert_one", A),
    ("delete_one", A),
    ("insert_one", A),
    ("insert_one", {"_id": "b", "n": 0, "r": {"l": ["w"]}}),  # 1
    ("update_one", B, {"$set": {"n": 1, "r.l": ["w", "x"]}}),
    ("update_one", B, {"$set": {"n": 2, "r.l": ["w", "x", "y"]}}),  # 2
    ("update_one", B, {"$set": {"q": {"a": 1}}, "$unset": {"q.a": ""}}),
    ("delete_one", B),
    ("compact",),  # 3
    ("create_unique_index", "k"),
    ("create_index", "k"),  # both kinds on one field
    ("update_one", A, {"$set": {"k": 1, "t": "x"}}),
    # Leaves q: {a: {}} behind, which "q.a.b is gone" would not say.
    ("update_one", A, {"$set": {"q.a.b": 1}, "$unset": {"q.a.b": ""}}),
    ("reopen",),  # while q still says so
    ("update_one", A, {"$set": {"t.u": 1, "q.a": 1, "q": 2}}),
    ("update_one", A, {"$set": {"q": 1}, "$push": {"t": "x"}}),  # refused
    ("update_one", A, {"$set": {"_id": "b"}}),
    ("update_one", A, {"$set": {"n": 1, "r.l": ["x"]}}),
    ("insert_one", {"_id": "c", "k": 1, "t": "x", "pad": "x" * 40}),
]
#: The kinds of update ``WALK`` runs, as :func:`kinds_of` names them.
UPDATE_KINDS = {
    "nested", "several operators", "overlapping", "through a non-dict",
    "_id", "refused",
}


def under_every_fault(test):
    for fault in FAULTS:
        for seed in range(3):
            test = example(ops=WALK, fault=fault, seed=seed)(test)
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


def reach(doc, path, create):
    """The dict holding ``path``'s last step: ``(dict, step)``.  A step
    on the way that holds no dict is replaced by one with ``create`` and
    ends the walk (``(None, step)``) without."""
    *outer, leaf = path.split(".")
    for step in outer:
        if not isinstance(doc.get(step), dict):
            if not create:
                return None, leaf
            doc[step] = {}
        doc = doc[step]
    return doc, leaf


def predict(docs, indexes, op):
    """The model: ``(docs, indexes)`` after ``op`` on plain dicts, or the
    ``DuplicateError`` / ``ValidationError`` the engine must refuse
    with."""
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
        for operator, changes in args[1].items():
            if operator not in ("$set", "$unset"):
                raise ValidationError(operator)
            for path, value in copy.deepcopy(changes).items():
                if path.split(".")[0] == "_id":
                    raise ValidationError(path)
                holder, leaf = reach(written, path, operator != "$unset")
                if operator == "$unset":
                    if holder is not None:
                        holder.pop(leaf, None)
                    continue
                holder[leaf] = value
    elif verb == "delete_one":
        docs.pop(args[0]["_id"], None)
    elif verb in ("create_index", "create_unique_index"):
        indexes.add(op)
    if written is not None:
        docs[written["_id"]] = written
    held = [doc["k"] for doc in docs.values() if doc.get("k") is not None]
    if ("create_unique_index", "k") in indexes and len(held) != len(set(held)):
        raise DuplicateError("k")
    return docs, indexes


def kinds_of(doc, update, refusal):
    """What about ``update`` (applied to ``doc``) the effect record
    could get wrong."""
    paths = [path for changes in update.values() for path in changes]
    kinds = set()
    if any("." in path for path in paths):
        kinds.add("nested")
    if len(update) > 1:
        kinds.add("several operators")
    if any(
        other.startswith(path + ".") for path in paths for other in paths
    ):
        kinds.add("overlapping")
    if any(path.split(".")[0] == "_id" for path in paths):
        kinds.add("_id")
    elif refusal is ValidationError:
        kinds.add("refused")
    for path in paths:
        *outer, _ = path.split(".")
        if outer and outer[0] in doc and reach(doc, path, False)[0] is None:
            kinds.add("through a non-dict")
    return kinds


def state(db):
    """What a reader sees: the documents, in ``find()`` order, by id."""
    return {doc["_id"]: doc for doc in db["c"].find()}


def assert_same(seen, expected):
    assert seen == expected
    assert list(seen) == list(expected)  # dicts compare unordered


def assert_between(seen, before, after):
    """An interrupted operation happened or did not, per document;
    nothing else moved."""
    for doc_id in set(seen) | set(before) | set(after):
        assert seen.get(doc_id) in (before.get(doc_id), after.get(doc_id))


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

        def reopen(indexes):
            db = dbs.enter_context(
                Database("model", root=root, durability="strict")
            )
            for verb, field in sorted(indexes):
                getattr(db["c"], verb)(field)
            return db

        db, model, interrupted = reopen(()), ({}, set()), None
        with chaos.injected(seed=0, rules=rules) as injector:
            for op in ops:
                try:
                    after, refusal = predict(*model, op), None
                except (DuplicateError, ValidationError) as error:
                    after, refusal = model, type(error)
                if op[0] == "update_one" and op[1]["_id"] in model[0]:
                    DRAWN.update(
                        kinds_of(model[0][op[1]["_id"]], op[2], refusal)
                    )
                try:
                    if op == ("reopen",):
                        db.close()
                        db = reopen(model[1])
                    elif op == ("compact",):
                        db.compact()
                    else:
                        getattr(db["c"], op[0])(*op[1:])
                except (DuplicateError, ValidationError) as error:
                    assert type(error) is refusal, op
                except FaultInjectedError:
                    # The op failed, part-way at most; what the caller
                    # can read now is what must be on disk.
                    seen = state(db)
                    assert_between(seen, model[0], after[0])
                    model = seen, model[1]
                except WorkerCrashed:
                    interrupted = (model[0], after[0])
                    break
                else:
                    assert refusal is None, op
                    model = after
                assert_same(state(db), model[0])
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
            record, landed = IN_FLIGHT, ("insert_one", IN_FLIGHT["doc"])
            if fault[2] == "update" and model[0]:
                target = sorted(model[0])[seed % len(model[0])]
                record = {**IN_FLIGHT_EFFECT, "id": target}
                landed = ("update_one", {"_id": target}, IN_FLIGHT_UPDATE)
            frame = encode_record(record, new_deflater())
            piece = {
                "header": frame[: 1 + seed % 7],
                "payload": frame[: 8 + seed % (len(frame) - 8)],
                "boundary": frame,
                "flipped": flipped(frame, seed),
            }[fault[1]]
            wal.parent.mkdir(exist_ok=True)  # the WAL may be unborn
            with open(wal, "ab") as handle:
                handle.write(piece)
            if piece == frame:  # whole: the write happened after all
                model = predict(*model, landed)
            else:
                torn = len(piece)
            if fault[2] == record["op"]:
                FIRED.add(fault)
        elif fault and fault[0] == "rot" and segment.exists():
            if segment.stat().st_size:  # all-deleted compacts to nothing
                segment.write_bytes(flipped(segment.read_bytes(), seed))
                FIRED.add(fault)
                with pytest.raises(CorruptRecordError):
                    reopen(())
                return

        recovered = reopen(model[1])  # the "crash": nothing was closed
        if interrupted:
            assert_between(state(recovered), *interrupted)
        else:
            assert_same(state(recovered), model[0])
        report = recovered.recovery_report().values()
        assert sum(entry["truncated_bytes"] for entry in report) == torn
        recovered["c"].insert_one({"_id": "probe"})
        again = reopen(model[1])  # replaying what is on disk once more
        assert_same(state(again), state(recovered))
        assert again.recovery_report()["c"]["truncated_bytes"] == 0


def test_every_fault_was_injected():
    """The run above fired every point x action, tore every way through
    both kinds of frame, and ran every kind of update."""
    assert FIRED >= set(FAULTS[1:])
    assert DRAWN >= UPDATE_KINDS
