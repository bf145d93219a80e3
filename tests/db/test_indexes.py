"""Tests for secondary (non-unique) indexes and their query fast paths."""

import pytest

from repro.common.errors import ValidationError
from repro.db.collection import Collection


def ids(coll, query):
    return sorted(d["_id"] for d in coll.find(query))


def build(n=30):
    coll = Collection("runs")
    for i in range(n):
        coll.insert_one(
            {"_id": f"r{i}", "bucket": i % 3, "tags": [f"t{i % 2}", "all"]}
        )
    return coll


def test_equality_served_from_index():
    coll = build()
    coll.create_index("bucket")
    assert ids(coll, {"bucket": 1}) == sorted(f"r{i}" for i in range(1, 30, 3))


def test_index_results_match_scan_results():
    indexed = build()
    indexed.create_index("bucket")
    scan = build()
    for query in ({"bucket": 0}, {"bucket": 2}, {"bucket": 99}):
        assert ids(indexed, query) == ids(scan, query), query


def test_candidates_actually_narrow():
    coll = build()
    coll.create_index("bucket")
    candidates = coll._candidates({"bucket": 1})
    assert len(list(candidates)) == 10  # not the whole collection


def test_multikey_list_values():
    coll = Collection("arts")
    coll.create_index("tags")
    coll.insert_one({"_id": "a", "tags": ["x", "y"]})
    coll.insert_one({"_id": "b", "tags": ["y"]})
    coll.insert_one({"_id": "c", "tags": "y"})  # scalar value, same index
    # Equality-with-element (Mongo array semantics) through the index.
    assert ids(coll, {"tags": "y"}) == ["a", "b", "c"]
    assert ids(coll, {"tags": "x"}) == ["a"]
    # Whole-array equality still works.
    assert ids(coll, {"tags": ["y"]}) == ["b"]


def test_index_maintained_across_update_and_delete():
    coll = build(6)
    coll.create_index("bucket")
    coll.update_one({"_id": "r0"}, {"$set": {"bucket": 2}})
    assert ids(coll, {"bucket": 2}) == ["r0", "r2", "r5"]
    assert ids(coll, {"bucket": 0}) == ["r3"]
    coll.delete_one({"_id": "r2"})
    assert ids(coll, {"bucket": 2}) == ["r0", "r5"]


def test_index_built_over_existing_documents():
    coll = build(9)
    coll.create_index("bucket")  # after the fact
    assert len(coll.find({"bucket": 0})) == 3


def test_missing_and_none_fields_not_indexed():
    coll = Collection("c")
    coll.create_index("k")
    coll.insert_one({"_id": "a"})  # field absent
    coll.insert_one({"_id": "b", "k": None})  # sparse
    coll.insert_one({"_id": "c", "k": 1})
    assert ids(coll, {"k": 1}) == ["c"]
    # None equality falls back to a scan and still matches.
    assert ids(coll, {"k": None}) == ["b"]


def test_operator_queries_fall_back_to_scan():
    coll = build(9)
    coll.create_index("bucket")
    assert len(coll.find({"bucket": {"$exists": True}})) == 9
    assert len(coll.find({"bucket": {"$ne": 0}})) == 6


def test_in_with_non_list_still_raises():
    coll = build(3)
    coll.create_index("bucket")
    # An operator the database does not speak is refused, not looked up.
    with pytest.raises(ValidationError, match=r"\$in"):
        coll.find({"bucket": {"$in": 1}})
    with pytest.raises(ValidationError, match=r"\$in"):
        coll.find({"bucket": {"$in": [0]}})


def test_create_index_is_idempotent():
    coll = build(6)
    coll.create_index("bucket")
    coll.create_index("bucket")
    assert len(coll.find({"bucket": 0})) == 2


def test_dotted_path_index():
    coll = Collection("runs")
    coll.create_index("params.cpu")
    coll.insert_one({"_id": "a", "params": {"cpu": "timing"}})
    coll.insert_one({"_id": "b", "params": {"cpu": "kvm"}})
    assert ids(coll, {"params.cpu": "kvm"}) == ["b"]
