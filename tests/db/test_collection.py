"""Tests for Collection CRUD, indexes, and the $set/$unset updates."""

import copy
import datetime
import os

import pytest
from hypothesis import given, strategies as st

from repro import chaos
from repro.common.errors import (
    DuplicateError,
    FaultInjectedError,
    ValidationError,
)
from repro.db import connect
from repro.db.collection import Collection
from repro.db.engine.wal import read_log
from tests.helpers import insert_many


@pytest.fixture
def coll():
    return Collection("artifacts")


@pytest.fixture(params=["memory://", "file://"])
def uri(request, tmp_path):
    """Both backends; the ``file://`` one logs every write as it
    happens (and can be reopened: see :func:`on_disk`)."""
    if request.param == "memory://":
        return request.param
    return f"file://{tmp_path / 'db'}?durability=strict"


@pytest.fixture
def nested(uri):
    """A collection holding one nested document, ``x``, and a second
    one, ``other``, that owns ``h == 1`` of a unique index."""
    with connect(uri) as database:
        stored = database["docs"]
        stored.create_unique_index("h")
        stored.insert_one(
            {
                "_id": "x",
                "h": 0,
                "a": {"b": {"c": 1}, "kept": {"deep": [1, 2]}},
                "sibling": {"z": {"y": 0}},
                "log": ["started"],
                "tag": "not-a-list",
            }
        )
        stored.insert_one({"_id": "other", "h": 1})
        yield stored


def on_disk(uri):
    """What a reopen finds (None on ``memory://``) and the log's size."""
    if uri == "memory://":
        return None, 0
    with connect(uri) as reopened:
        stats = reopened.storage_stats()["collections"]["docs"]
        return reopened["docs"].find(), stats["wal_bytes"]


def test_insert_assigns_id(coll):
    doc_id = coll.insert_one({"name": "gem5"})
    assert coll.find_one({"_id": doc_id})["name"] == "gem5"


def test_insert_preserves_given_id(coll):
    coll.insert_one({"_id": "fixed", "name": "gem5"})
    assert coll.find_one({"_id": "fixed"}) is not None


def test_an_insert_that_names_its_id_mints_none(coll, monkeypatch):
    minted = []

    def new_uuid():
        minted.append(None)
        return f"minted-{len(minted)}"

    monkeypatch.setattr("repro.db.collection.new_uuid", new_uuid)
    coll.insert_one({"_id": "fixed", "name": "gem5"})
    assert minted == []
    assert coll.insert_one({"name": "linux"}) == "minted-1"


def test_insert_duplicate_id_raises(coll):
    coll.insert_one({"_id": "x"})
    with pytest.raises(DuplicateError):
        coll.insert_one({"_id": "x"})


def test_insert_rejects_non_dict(coll):
    with pytest.raises(ValidationError):
        coll.insert_one(["not", "a", "doc"])


def test_len_counts_documents(coll):
    insert_many(coll, [{"n": i} for i in range(5)])
    assert len(coll) == 5


def test_returned_documents_are_copies(coll):
    coll.insert_one({"_id": "x", "nested": {"a": 1}})
    doc = coll.find_one({"_id": "x"})
    doc["nested"]["a"] = 999
    assert coll.find_one({"_id": "x"})["nested"]["a"] == 1


def test_inserted_document_is_copied(coll):
    original = {"_id": "x", "list": [1]}
    coll.insert_one(original)
    original["list"].append(2)
    assert coll.find_one({"_id": "x"})["list"] == [1]


def test_find_with_query_sort_limit(coll):
    insert_many(coll, [{"v": i} for i in (3, 1, 2)])
    docs = coll.find({"v": {"$ne": 3}}, sort=[("v", -1)], limit=1)
    assert [d["v"] for d in docs] == [2]


def test_find_with_projection(coll):
    coll.insert_one({"_id": "x", "a": 1, "b": 2})
    assert coll.find({}, fields=["a"]) == [{"_id": "x", "a": 1}]


def test_count(coll):
    insert_many(coll, [{"t": "a"}, {"t": "b"}, {"t": "a"}])
    assert coll.count({"t": "a"}) == 2


def test_unique_index_blocks_duplicates(coll):
    coll.create_unique_index("hash")
    coll.insert_one({"hash": "h1"})
    with pytest.raises(DuplicateError):
        coll.insert_one({"hash": "h1"})
    coll.insert_one({"hash": "h2"})


def test_unique_index_sparse(coll):
    coll.create_unique_index("hash")
    coll.insert_one({"name": "a"})
    coll.insert_one({"name": "b"})  # both missing "hash": allowed


def test_unique_index_on_existing_violation(coll):
    insert_many(coll, [{"h": 1}, {"h": 1}])
    with pytest.raises(DuplicateError):
        coll.create_unique_index("h")


def test_update_unset(coll):
    coll.insert_one({"_id": "x", "tmp": 1, "n": 2})
    # A path through a missing or non-dict step is already absent.
    coll.update_one(
        {"_id": "x"}, {"$unset": {"tmp": "", "no.such": "", "n.m": ""}}
    )
    assert coll.find_one({"_id": "x"}) == {"_id": "x", "n": 2}


def test_update_requires_operators(coll):
    """``$set`` and ``$unset`` only: every other update is refused."""
    coll.insert_one({"_id": "x", "n": 1, "log": []})
    for update in (
        {"plain": "doc"}, {}, {"$inc": {"n": 1}}, {"$push": {"log": 1}},
        {"$set": {"n": 2}, "$inc": {"n": 1}},
    ):
        with pytest.raises(ValidationError):
            coll.update_one({"_id": "x"}, update)
    assert coll.find() == [{"_id": "x", "n": 1, "log": []}]


def test_update_nonexistent_returns_false(coll):
    assert not coll.update_one({"_id": "nope"}, {"$set": {"a": 1}})


def test_update_cannot_violate_unique_index(coll):
    coll.create_unique_index("h")
    coll.insert_one({"_id": "one", "h": 1})
    coll.insert_one({"_id": "two", "h": 2})
    with pytest.raises(DuplicateError):
        coll.update_one({"_id": "two"}, {"$set": {"h": 1}})


@pytest.mark.parametrize(
    "update",
    [
        {"$set": {"_id": "b"}},
        {"$set": {"tag": "t", "_id.serial": 1}},
        {"$set": {"_id": "x"}},
        {"$unset": {"_id.serial": ""}},
        {"$unset": {"_id": ""}},
    ],
)
def test_update_cannot_touch_the_id(nested, uri, update):
    """A document filed under one id that says it is another is found
    under neither, and comes back from a replay as two."""
    before, logged = nested.find(), on_disk(uri)[1]
    with pytest.raises(ValidationError, match="_id"):
        nested.update_one({"_id": "x"}, update)
    assert nested.find() == before
    assert nested.find({"_id": "x"}) == before[:1]
    assert nested.find({"_id": "b"}) == []
    reopened, size = on_disk(uri)
    assert reopened in (None, before)
    assert size == logged


def refused_by_unique_index(stored):
    with pytest.raises(DuplicateError):
        stored.update_one(
            {"_id": "x"}, {"$set": {"a.b.c": 2, "sibling.z": 3, "h": 1}}
        )


def refused_by_a_later_operator(stored):
    with pytest.raises(ValidationError, match="_id"):
        stored.update_one(
            {"_id": "x"},
            {"$set": {"a.b": 1, "h": 5}, "$unset": {"tag": "", "_id": ""}},
        )


def refused_by_the_log(stored):
    rule = chaos.FaultRule("wal.append", "raise", match={"op": "update"})
    with chaos.injected(seed=0, rules=[rule]):
        with pytest.raises(FaultInjectedError):
            stored.update_one(
                {"_id": "x"}, {"$set": {"a.b.c": 2}, "$unset": {"sibling": ""}}
            )


@pytest.mark.parametrize(
    "refuse",
    [refused_by_unique_index, refused_by_a_later_operator, refused_by_the_log],
)
def test_refused_update_leaves_the_stored_document_untouched(
    nested, uri, refuse
):
    """Down to its nested dicts: the next version is built beside the
    stored one, which nothing reaches into."""
    if refuse is refused_by_the_log and uri == "memory://":
        pytest.skip("a memory:// collection has no log to fail")
    held = nested._documents["x"]
    snapshot, logged = copy.deepcopy(held), on_disk(uri)[1]
    refuse(nested)
    assert nested._documents["x"] is held
    assert held == snapshot
    assert nested.find_one({"_id": "x"}) == snapshot
    assert nested.find({"h": 0}) == [snapshot]  # still indexed as it was
    reopened, size = on_disk(uri)
    assert reopened is None or reopened[0] == snapshot
    assert size == logged


def test_update_copies_the_values_it_is_given(nested, uri):
    placed, listed = {"deep": {"er": [1]}}, ["started", {"at": [0]}]
    nested.update_one(
        {"_id": "x"},
        {"$set": {"a.b": placed, "log": listed, "sibling.z.y.w": placed}},
    )
    placed["deep"]["er"].append(2)
    listed[1]["at"].append(1)
    doc = nested.find_one({"_id": "x"})
    assert doc["a"]["b"] == {"deep": {"er": [1]}}
    assert doc["log"] == ["started", {"at": [0]}]
    assert doc["sibling"] == {"z": {"y": {"w": {"deep": {"er": [1]}}}}}
    reopened, _ = on_disk(uri)
    assert reopened is None or reopened[0] == doc
    if reopened is not None:
        # Logged at the step that held no dict: all below it is new.
        log, _, _ = read_log(os.path.join(nested._store.dir, "wal.log"))
        assert log[-1]["set"]["sibling.z.y"] == {"w": {"deep": {"er": [1]}}}


def test_update_copies_the_paths_it_touches_and_nothing_else(nested):
    """White box.  Sharing what an update does not touch is what makes
    it cost the change and not the document; new dicts along what it
    does touch is what makes that safe."""
    before = nested._documents["x"]
    shared = {
        "kept": before["a"]["kept"],
        "sibling": before["sibling"],
        "log": before["log"],
    }
    snapshot = copy.deepcopy(before)
    assert nested.update_one(
        {"_id": "x"}, {"$set": {"a.b.c": 2}, "$unset": {"a.b.gone": ""}}
    )
    after = nested._documents["x"]
    assert after["a"]["b"] == {"c": 2}
    assert after["a"]["kept"] is shared["kept"]
    assert after["sibling"] is shared["sibling"]
    assert after["log"] is shared["log"]
    assert after is not before
    assert after["a"] is not before["a"]
    assert after["a"]["b"] is not before["a"]["b"]
    assert before == snapshot  # the replaced version was not written to


def containers(tree):
    """The ids of every dict and list in ``tree`` (tuples are walked)."""
    ids, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            ids.add(id(node))
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return ids


def assert_nothing_shared(*trees):
    # The trees are held alive by the caller, so no id is reused.
    for index, tree in enumerate(trees):
        for other in trees[index + 1 :]:
            assert not containers(tree) & containers(other)


def test_no_dict_or_list_crosses_the_api_boundary(uri):
    """White box.  What the caller passed, what is stored and what is
    handed out share no container, so nobody writes into anybody else's
    document."""
    given = {"_id": "x", "a": {"b": [1, {"c": 2}]}, "t": ([3], {"d": 4})}
    with connect(uri) as database:
        docs = database["docs"]
        docs.insert_one(given)
        handed = [
            docs.find_one({"_id": "x"}),
            docs.find({"a.b": 1})[0],
            docs.all_documents()[0],
            next(iter(docs)),
        ]
        assert_nothing_shared(given, docs._documents["x"], *handed)

        replacement = {"r": [{"s": []}], "u": {"v": [4]}}
        docs.replace_one({"_id": "x"}, replacement)
        handed = docs.find_one({"_id": "x"})
        assert_nothing_shared(replacement, docs._documents["x"], handed)

        placed, listed = {"e": [5, {"f": 6}]}, [{"s": []}, [{"g": [7]}]]
        docs.update_one({"_id": "x"}, {"$set": {"u.v": placed, "r": listed}})
        handed = docs.find_one({"_id": "x"})
        assert handed["u"]["v"] == placed and handed["r"] == listed
        assert_nothing_shared(placed, listed, docs._documents["x"], handed)


def test_find_copies_only_what_it_returns(coll, monkeypatch):
    """Filter, sort, limit and projection read the stored documents: a
    ``find_one`` over many matches copies one, a projection copies only
    its fields."""
    from repro.db import collection

    insert_many(
        coll, [{"t": "a", "n": n, "big": {"xs": [n] * 8}} for n in range(20)]
    )
    copied = []

    def json_copy(value):
        copied.append(value)
        return real_copy(value)

    real_copy = collection.json_copy
    monkeypatch.setattr(collection, "json_copy", json_copy)
    assert coll.find_one({"t": "a"})["t"] == "a"
    assert len(copied) == 1
    del copied[:]
    found = coll.find({"t": "a"}, sort=[("n", -1)], limit=2, fields=["n"])
    assert [doc["n"] for doc in found] == [19, 18]
    assert [set(value) for value in copied] == [{"_id", "n"}] * 2


def test_what_find_returns_shares_nothing_with_the_store(uri):
    """Sorted, limited and projected answers are copies too."""
    with connect(uri) as database:
        docs = database["docs"]
        for name in ("x", "y"):
            docs.insert_one({"_id": name, "a": {"b": [1, {"c": 2}]}})
        handed = [
            docs.find({}, sort=[("_id", -1)]),
            docs.find({"a.b": 1}, limit=1),
            docs.find({}, fields=["a.b"]),
            docs.find_one({"_id": "y"}, fields=["a"]),
        ]
        assert handed[0][0]["_id"] == "y"
        assert handed[2][0] == {"_id": "x", "a": {"b": [1, {"c": 2}]}}
        assert_nothing_shared(
            docs._documents["x"], docs._documents["y"], *handed
        )


def test_a_reopen_changes_no_query_answer(tmp_path):
    """What a query matches and what it hands back are the same before
    and after a reopen: a tuple is stored as the list the log replays,
    an int key as the ``str`` one."""
    uri = f"file://{tmp_path / 'db'}?durability=strict"
    queries = [
        {"shape": [1, 2]},
        {"shape": 1},
        {"k.1": "x"},
        {"log": [[3, 4]]},
        {"k.2": [5]},
    ]

    def answers(docs):
        return (
            [docs.find_one({"_id": doc_id}) for doc_id in "abc"],
            [docs.count(query) for query in queries],
        )

    with connect(uri) as database:
        docs = database["docs"]
        docs.insert_one({"_id": "a", "shape": (1, 2), "k": {1: "x"}})
        docs.insert_one({"_id": "b"})
        docs.replace_one({"_id": "b"}, {"shape": (1, 2), "k": {2: (5,)}})
        docs.insert_one({"_id": "c", "log": []})
        docs.update_one(
            {"_id": "c"},
            {"$set": {"shape": (1, 2), "k": {1: "x"}, "log": [(3, 4)]}},
        )
        before = answers(docs)
    with connect(uri) as reopened:
        assert answers(reopened["docs"]) == before
    assert before[0][0] == {"_id": "a", "shape": [1, 2], "k": {"1": "x"}}
    assert before[1] == [3, 3, 2, 1, 1]


def test_a_reopen_holds_each_equal_string_once(tmp_path):
    """A replay shares equal keys and string values across documents,
    and gives back tagged values as they were inserted."""
    uri = f"file://{tmp_path / 'db'}"
    tagged = {
        "at": datetime.datetime(2020, 1, 2, 3, 4, 5),
        "raw": b"\x00\xff",
        "tags": {"a", "b"},
        "user": {"$set": "x"},
    }
    with connect(uri) as database:
        for doc_id in "ab":
            database["docs"].insert_one(dict(_id=doc_id, key="done", **tagged))
    with connect(uri) as reopened:
        a, b = (reopened["docs"]._documents[doc_id] for doc_id in "ab")
        keys = [next(k for k in doc if k == "key") for doc in (a, b)]
        assert keys[0] is keys[1] and a["key"] is b["key"]
        assert reopened["docs"].find_one({"_id": "b"}) == dict(
            _id="b", key="done", **tagged
        )


def test_replace_one(coll):
    coll.insert_one({"_id": "x", "old": True})
    assert coll.replace_one({"_id": "x"}, {"new": True})
    doc = coll.find_one({"_id": "x"})
    assert doc == {"_id": "x", "new": True}


def test_delete_one_and_many(coll):
    insert_many(coll, [{"t": "a"}, {"t": "a"}, {"t": "b"}])
    assert coll.delete_one({"t": "a"})
    assert coll.count() == 2
    # Many is one at a time: no caller deletes by query in bulk.
    assert coll.delete_one({"t": "a"}) and not coll.delete_one({"t": "a"})
    assert not coll.delete_one({"t": "zzz"})


@given(st.lists(st.integers(min_value=0, max_value=20), max_size=30))
def test_property_insert_then_count(values):
    coll = Collection("prop")
    for v in values:
        coll.insert_one({"v": v})
    for target in set(values):
        assert coll.count({"v": target}) == values.count(target)


@given(
    st.lists(
        st.integers(min_value=0, max_value=10), unique=True, max_size=10
    )
)
def test_property_unique_index_allows_unique_values(values):
    coll = Collection("prop")
    coll.create_unique_index("v")
    for v in values:
        coll.insert_one({"v": v})
    assert len(coll) == len(values)
