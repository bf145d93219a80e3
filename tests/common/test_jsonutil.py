"""Tests for repro.common.jsonutil round-tripping and canonical form."""

import datetime

from hypothesis import example, given, strategies as st

from repro.common.jsonutil import canonical_dumps, dumps, loads


def test_roundtrip_basic_types():
    value = {"a": 1, "b": [1.5, "x", None, True]}
    assert loads(dumps(value)) == value


def test_roundtrip_datetime():
    now = datetime.datetime(2021, 3, 14, 15, 9, 26)
    assert loads(dumps({"t": now})) == {"t": now}


def test_roundtrip_bytes():
    value = {"blob": b"\x00\x01binary\xff"}
    assert loads(dumps(value)) == value


def test_roundtrip_set():
    value = {"tags": {"x", "y"}}
    assert loads(dumps(value)) == value


def test_tuple_becomes_list():
    assert loads(dumps((1, 2))) == [1, 2]


def test_canonical_sorted_keys():
    one = canonical_dumps({"b": 1, "a": 2})
    two = canonical_dumps({"a": 2, "b": 1})
    assert one == two
    assert one.index('"a"') < one.index('"b"')


def test_canonical_no_whitespace():
    assert " " not in canonical_dumps({"a": [1, 2], "b": {"c": 3}})


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(json_values)
@example({"$bytes": None})
@example({"$set": 3})
@example({"$datetime": "x"})
@example({"$bytes": "YWJj"})
@example({"$literal": {"$set": [1]}})
def test_roundtrip_property(value):
    # A user dict that merely looks like a type tag is data: it must
    # neither crash the decoder nor come back as bytes/datetime/set.
    assert loads(dumps(value)) == value


@given(json_values)
def test_canonical_is_deterministic(value):
    assert canonical_dumps(value) == canonical_dumps(value)


# ----------------------------------------------------- number normalization


def test_canonical_normalizes_integral_floats():
    assert canonical_dumps({"n": 2.0}) == canonical_dumps({"n": 2})
    assert canonical_dumps({"n": -0.0}) == canonical_dumps({"n": 0})
    assert canonical_dumps([1.0, 2.5]) == '[1,2.5]'


def test_canonical_normalizes_nested_numbers():
    assert canonical_dumps({"a": {"b": [8.0]}}) == '{"a":{"b":[8]}}'


def test_canonical_keeps_bools_distinct_from_ints():
    # bool is an int subclass; normalization must not collapse them.
    assert canonical_dumps({"x": True}) != canonical_dumps({"x": 1})
    assert canonical_dumps({"x": True}) == '{"x":true}'


def test_canonical_rejects_non_finite_floats():
    import math

    import pytest

    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            canonical_dumps({"x": bad})


def test_plain_dumps_preserves_float_spelling():
    # Only the *canonical* form normalizes; round-trip serialization
    # must hand back exactly what was stored.
    assert loads(dumps({"n": 2.0})) == {"n": 2.0}
    assert isinstance(loads(dumps({"n": 2.0}))["n"], float)


@given(json_values)
def test_canonical_is_insensitive_to_key_order(value):
    def permute(node):
        if isinstance(node, dict):
            return {
                k: permute(v) for k, v in sorted(
                    node.items(), reverse=True
                )
            }
        if isinstance(node, list):
            return [permute(item) for item in node]
        return node

    assert canonical_dumps(permute(value)) == canonical_dumps(value)


def test_stable_dumps_round_trips_floats_exactly():
    from repro.common.jsonutil import stable_dumps

    value = {"b": 2.0, "a": 1}
    text = stable_dumps(value)
    assert text == '{"a":1,"b":2.0}'  # sorted, minimal, unnormalized
    reread = loads(text)
    assert isinstance(reread["b"], float)
