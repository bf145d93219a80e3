"""Tests for the Mongo-style query evaluator."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ValidationError
from repro.db.collection import Collection
from repro.db.query import matches, project, sort_documents


DOC = {
    "name": "gem5",
    "type": "binary",
    "version": 20,
    "tags": ["x86", "opt"],
    "git": {"hash": "abc123", "url": "https://gem5"},
}


def test_empty_query_matches():
    assert matches(DOC, {})


def test_implicit_equality():
    assert matches(DOC, {"name": "gem5"})
    assert not matches(DOC, {"name": "linux"})
    assert matches(DOC, {"git": {"hash": "abc123", "url": "https://gem5"}})
    assert not matches(DOC, {"git": {"hash": "abc123"}})


def test_dotted_path():
    assert matches(DOC, {"git.hash": "abc123"})
    assert not matches(DOC, {"git.hash": "zzz"})
    assert not matches(DOC, {"git.missing.deeper": 1})


def test_eq_ne():
    assert matches(DOC, {"version": 20})
    assert matches(DOC, {"version": {"$ne": 21}})
    assert not matches(DOC, {"version": {"$ne": 20}})


def test_array_equality_by_membership():
    assert matches(DOC, {"tags": "x86"})


def test_exists():
    assert matches(DOC, {"name": {"$exists": True}})
    assert matches(DOC, {"nope": {"$exists": False}})
    assert not matches(DOC, {"nope": {"$exists": True}})


def test_unknown_operator_raises():
    """Equality, ``$ne`` and ``$exists`` are the language: every other
    Mongo operator is refused, in a field condition or at the top, by
    all five entry points, whatever the collection holds — nothing, a
    document an earlier key rules out (indexed or not), or one that
    reaches the operator."""
    empty, held = Collection("empty"), Collection("held")
    held.create_index("s")
    held.insert_one(dict(DOC, s="y"))
    calls = (
        lambda coll, query: coll.find(query),
        lambda coll, query: coll.count(query),
        lambda coll, query: coll.update_one(query, {"$set": {"x": 1}}),
        lambda coll, query: coll.replace_one(query, {}),
        lambda coll, query: coll.delete_one(query),
    )

    def refused(query, message):
        for coll in (empty, held):
            for call in calls:
                with pytest.raises(ValidationError, match=message):
                    call(coll, query)

    for op, argument in [
        ("$frobnicate", 1), ("$eq", 20), ("$gt", 19), ("$gte", 20),
        ("$lt", 21), ("$lte", 20), ("$in", [20]), ("$nin", [21]),
        ("$regex", "2"), ("$size", 2), ("$all", [20]), ("$not", {"$ne": 21}),
    ]:
        for earlier in ({}, {"s": "x"}, {"name": "linux"}):
            refused(dict(earlier, version={op: argument}),
                    "unknown query operator")
    refused({"version": {"$ne": 21, "size": 2}}, "unknown query operator")
    for op in ("$frobnicate", "$and", "$or", "$nor"):
        refused({op: [{"version": 20}]}, "unknown top-level")
    refused([("version", 20)], "must be a dict")
    (stored,) = held.find()  # no refused write was applied
    assert stored == dict(DOC, s="y", _id=stored["_id"])


def test_sort_ascending_descending():
    docs = [{"v": 3}, {"v": 1}, {"v": 2}]
    assert [d["v"] for d in sort_documents(docs, [("v", 1)])] == [1, 2, 3]
    assert [d["v"] for d in sort_documents(docs, [("v", -1)])] == [3, 2, 1]


def test_sort_multi_key_stability():
    docs = [
        {"a": 1, "b": 2},
        {"a": 0, "b": 1},
        {"a": 1, "b": 1},
    ]
    ordered = sort_documents(docs, [("a", 1), ("b", -1)])
    assert ordered == [
        {"a": 0, "b": 1},
        {"a": 1, "b": 2},
        {"a": 1, "b": 1},
    ]


def test_sort_missing_fields_first():
    docs = [{"v": 1}, {}]
    assert sort_documents(docs, [("v", 1)])[0] == {}


def test_sort_invalid_direction():
    with pytest.raises(ValidationError, match="direction"):
        sort_documents([], [("v", 0)])


def test_project():
    out = project(dict(DOC, _id="x"), ["name", "git.hash"])
    assert out == {"_id": "x", "name": "gem5", "git": {"hash": "abc123"}}


def test_project_missing_field_skipped():
    assert project({"a": 1}, ["b"]) == {}


simple_docs = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=-5, max_value=5),
    max_size=3,
)


@given(st.lists(simple_docs, max_size=8))
def test_property_sort_is_ordered(docs):
    ordered = sort_documents(docs, [("a", 1)])
    values = [d["a"] for d in ordered if "a" in d]
    assert values == sorted(values)


# ----------------------------------------------------------- edge cases


def test_sort_mixed_missing_and_descending():
    docs = [{"v": 2}, {}, {"v": 1}, {"x": 9}]
    ascending = sort_documents(docs, [("v", 1)])
    # Missing fields sort first ascending (both missing docs lead) ...
    assert ascending[:2] == [{}, {"x": 9}]
    assert [d.get("v") for d in ascending[2:]] == [1, 2]
    # ... and therefore last descending.
    descending = sort_documents(docs, [("v", -1)])
    assert [d.get("v") for d in descending[:2]] == [2, 1]
    assert descending[2:] == [{}, {"x": 9}]


def test_sort_missing_is_stable_across_keys():
    docs = [{"a": 1, "b": 2}, {"b": 1}, {"a": 1, "b": 1}]
    out = sort_documents(docs, [("a", 1), ("b", 1)])
    assert out == [{"b": 1}, {"a": 1, "b": 1}, {"a": 1, "b": 2}]


def test_project_nested_path_through_absent_intermediate():
    # The intermediate key is absent entirely ...
    assert project({"a": 1}, ["b.c.d"]) == {}
    # ... or present but not a dict: the path cannot resolve, so the
    # field is skipped rather than fabricating {"a": {...}} structure.
    assert project({"a": 5}, ["a.b"]) == {}
    assert project({"a": {"b": 1}}, ["a.b.c"]) == {}


def test_project_partially_resolvable_paths():
    doc = {"_id": "x", "a": {"b": 1}, "c": 2}
    out = project(doc, ["a.b", "a.missing", "c"])
    assert out == {"_id": "x", "a": {"b": 1}, "c": 2}
