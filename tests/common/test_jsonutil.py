"""Tests for repro.common.jsonutil round-tripping and canonical form."""

import base64
import datetime
import enum
import json
import math
import zlib
from typing import Any

import pytest

from hypothesis import example, given, strategies as st

from repro.common.jsonutil import (
    canonical_dumps,
    dumps,
    json_copy,
    loads,
    stable_dumps,
)
from repro.db.engine.wal import DEFLATED, encode_record, new_deflater


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


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20)
)
#: What JSON itself holds: these round-trip to an equal value.
plain_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blue"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


members = st.sampled_from([Colour.RED, Colour.BLUE, Level.LOW, Level.HIGH])
#: Everything a document may hold on its way into the log: the types
#: with a tag, tuples, ``str``/``int`` enum members, int keys and keys
#: that look like tags.
json_values = st.recursive(
    json_scalars
    | members
    | st.datetimes()
    | st.binary(max_size=8)
    | st.sets(st.integers(-9, 9), max_size=3)
    | st.frozensets(st.text(max_size=3), max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(
        st.text(max_size=8)
        | st.integers(-3, 3)
        | members
        | st.sampled_from(["$set", "$bytes", "$literal"]),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


@given(plain_values)
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


@given(plain_values)
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
    value = {"b": 2.0, "a": 1}
    text = stable_dumps(value)
    assert text == '{"a":1,"b":2.0}'  # sorted, minimal, unnormalized
    reread = loads(text)
    assert isinstance(reread["b"], float)


# ------------------------------------------- the encoders, before the walker
# Verbatim from the tree before the type-dispatched walk: the reference
# every byte of a WAL record and every fingerprint must still match.

_BYTES_TAG = "$bytes"
_DATETIME_TAG = "$datetime"
_SET_TAG = "$set"
_LITERAL_TAG = "$literal"
_TAGS = frozenset({_BYTES_TAG, _DATETIME_TAG, _SET_TAG, _LITERAL_TAG})


def _normalize_numbers(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(
                f"non-finite number {value!r} has no canonical JSON form"
            )
        if value == int(value):
            return int(value)
        return value
    if isinstance(value, dict):
        return {k: _normalize_numbers(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize_numbers(v) for v in value]
    return value


def _encode_special(value: Any) -> Any:
    if isinstance(value, datetime.datetime):
        return {_DATETIME_TAG: value.isoformat()}
    if isinstance(value, bytes):
        return {_BYTES_TAG: base64.b64encode(value).decode("ascii")}
    if isinstance(value, (set, frozenset)):
        return {_SET_TAG: sorted(_encode_special(v) for v in value)}
    if isinstance(value, tuple):
        return [_encode_special(v) for v in value]
    if isinstance(value, dict):
        encoded = {str(k): _encode_special(v) for k, v in value.items()}
        if len(encoded) == 1 and next(iter(encoded)) in _TAGS:
            return {_LITERAL_TAG: encoded}
        return encoded
    if isinstance(value, list):
        return [_encode_special(v) for v in value]
    return value


def _decode_special(value: Any) -> Any:
    if isinstance(value, dict):
        if len(value) == 1:
            ((tag, inner),) = value.items()
            if tag == _DATETIME_TAG:
                return datetime.datetime.fromisoformat(inner)
            if tag == _BYTES_TAG:
                return base64.b64decode(inner)
            if tag == _SET_TAG:
                return set(_decode_special(v) for v in inner)
            if tag == _LITERAL_TAG and isinstance(inner, dict):
                value = inner  # its single key is data, not a tag
        return {k: _decode_special(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_special(v) for v in value]
    return value


def typed(value):
    """``value`` with every node's type beside it, so a tuple is not a
    list and an enum member is not its plain value."""
    if isinstance(value, dict):
        return "dict", sorted((k, typed(v)) for k, v in value.items())
    if isinstance(value, list):
        return "list", [typed(v) for v in value]
    if isinstance(value, set):
        return "set", sorted(typed(v) for v in value)
    return type(value).__name__, value


@given(json_values)
@example({"$set": [1]})
@example({"$literal": {"$set": [1]}})
@example({1: (2.0, -0.0), "1": {Colour.RED: Level.LOW}})
@example({"at": datetime.datetime(2021, 3, 14), "b": b"\xff", "s": {3, 1}})
def test_every_byte_matches_the_encoders_before_the_walker(value):
    encoded = _encode_special(value)
    stable = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    assert stable_dumps(value) == stable
    assert canonical_dumps(value) == json.dumps(
        _normalize_numbers(encoded),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    assert dumps(value) == json.dumps(encoded)
    assert dumps(value, indent=2) == json.dumps(encoded, indent=2)
    assert loads(stable) == _decode_special(json.loads(stable))
    # The copy the database keeps is what its log replays, type for type.
    assert typed(json_copy(value)) == typed(loads(stable))


def test_loads_decodes_an_escaped_tag():
    text = '{"\\u0024set":[2,1],"k":{"\\u0024bytes":"YWJj"}}'
    assert loads(text) == _decode_special(json.loads(text))
    assert loads(text) == {"$set": [2, 1], "k": b"abc"}


@given(json_values | st.floats())
@example({"$set": [1]})
@example({"doc": {"$bytes": "YWJj"}, "at": datetime.datetime(2021, 3, 14)})
@example({"s": {3, 1}, "t": {"$datetime": "x"}})
@example({"s": {(1, datetime.datetime(2021, 3, 14))}})
@example({"$literal": {"$set": [1]}, "b": b"\xff"})
@example({"n": [2.0, -0.0, 1e300, math.inf, math.nan], Colour.RED: 1})
def test_the_wal_encoder_writes_the_tag_walks_bytes(value):
    """One pass of the C encoder, tags from ``default``, the walk only
    for a ``{"$`` it did not emit: a frame that inflates to exactly
    ``stable_dumps``' bytes (the tag walk, then ``json.dumps``), for
    every record a collection logs (what it holds is ``json_copy``'d)."""
    for record in (
        {"op": "insert", "doc": json_copy(value)},
        {"op": "update", "id": "x", "set": {"a.b": json_copy(value)}},
    ):
        frame = encode_record(record, new_deflater())
        assert frame[8:9] == DEFLATED
        assert zlib.decompressobj(-15).decompress(frame[9:]) == json.dumps(
            _encode_special(record), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")


def test_the_wal_encoder_refuses_what_stable_dumps_refused():
    class Shade(enum.Enum):
        DARK = 1

    record = {"op": "insert", "doc": json_copy({"shade": Shade.DARK})}
    with pytest.raises(TypeError, match="not JSON serializable"):
        stable_dumps(record)
    with pytest.raises(TypeError, match="not JSON serializable"):
        encode_record(record, new_deflater())
