"""Tests for Collection CRUD, indexes, and update operators."""

import copy

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
    docs = coll.find({"v": {"$gte": 2}}, sort=[("v", -1)], limit=1)
    assert [d["v"] for d in docs] == [3]


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


def test_update_set_and_inc(coll):
    coll.insert_one({"_id": "x", "count": 1})
    assert coll.update_one({"_id": "x"}, {"$set": {"state": "done"}})
    assert coll.update_one({"_id": "x"}, {"$inc": {"count": 2}})
    doc = coll.find_one({"_id": "x"})
    assert doc["state"] == "done"
    assert doc["count"] == 3


def test_update_inc_missing_field_starts_at_zero(coll):
    coll.insert_one({"_id": "x"})
    coll.update_one({"_id": "x"}, {"$inc": {"n": 5}})
    assert coll.find_one({"_id": "x"})["n"] == 5


def test_update_push(coll):
    coll.insert_one({"_id": "x"})
    coll.update_one({"_id": "x"}, {"$push": {"log": "started"}})
    coll.update_one({"_id": "x"}, {"$push": {"log": "finished"}})
    assert coll.find_one({"_id": "x"})["log"] == ["started", "finished"]


def test_update_push_non_list_raises(coll):
    coll.insert_one({"_id": "x", "log": "oops"})
    with pytest.raises(ValidationError):
        coll.update_one({"_id": "x"}, {"$push": {"log": "more"}})


def test_update_unset(coll):
    coll.insert_one({"_id": "x", "tmp": 1})
    coll.update_one({"_id": "x"}, {"$unset": {"tmp": ""}})
    assert "tmp" not in coll.find_one({"_id": "x"})


def test_update_requires_operators(coll):
    coll.insert_one({"_id": "x"})
    with pytest.raises(ValidationError):
        coll.update_one({"_id": "x"}, {"plain": "doc"})


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
        {"$inc": {"_id": 1}},
        {"$push": {"_id": "b"}},
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
    with pytest.raises(ValidationError, match="not a list"):
        stored.update_one(
            {"_id": "x"},
            {"$set": {"a.b": 1}, "$inc": {"h": 5}, "$push": {"tag": 1}},
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
    placed, pushed = {"deep": {"er": [1]}}, {"at": [0]}
    nested.update_one(
        {"_id": "x"}, {"$set": {"a.b": placed}, "$push": {"log": pushed}}
    )
    placed["deep"]["er"].append(2)
    pushed["at"].append(1)
    doc = nested.find_one({"_id": "x"})
    assert doc["a"]["b"] == {"deep": {"er": [1]}}
    assert doc["log"] == ["started", {"at": [0]}]
    reopened, _ = on_disk(uri)
    assert reopened is None or reopened[0] == doc


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
