"""JSON encoding helpers with a canonical form.

The storage engine frames each logged operation's canonical JSON (a length
and a CRC32 around it, see :mod:`repro.db.engine.wal`), and artifact hashes
must be stable across runs, so we need a *canonical* serialization: sorted keys, no
insignificant whitespace, and explicit handling of the handful of non-JSON
types the library uses (datetimes, tuples, sets, bytes).

Every document the database writes, reads or hands out is walked once
here, so the walks dispatch on ``type(value)``: plain dicts and lists are
rebuilt, plain scalars pass through without a call, and only what is
left (datetimes, bytes, sets, tuples, subclasses) meets an ``isinstance``
chain.
"""

from __future__ import annotations

import base64
import copy
import datetime
import json
import math
from sys import intern
from typing import Any, Callable

_BYTES_TAG = "$bytes"
_DATETIME_TAG = "$datetime"
_SET_TAG = "$set"
#: Wraps a *user* dict whose only key is one of the tags (or this one),
#: so that ``loads(dumps(v)) == v`` holds for every JSON value.
_LITERAL_TAG = "$literal"
_TAGS = frozenset({_BYTES_TAG, _DATETIME_TAG, _SET_TAG, _LITERAL_TAG})
#: Exact types a walk hands back as they are (subclasses take the
#: ``isinstance`` fallback).
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _walker(
    scalars: frozenset, other: Callable[[Any], Any], literal_tags: bool
) -> Callable[[Any], Any]:
    """One type-dispatched walk: dicts (keys made ``str``) and lists are
    rebuilt, a child whose exact type is in ``scalars`` is kept without
    a call, anything else goes to ``other``; ``literal_tags`` wraps a
    rebuilt dict that looks like a type tag."""

    def walk(value: Any) -> Any:
        kind = type(value)
        if kind is dict:
            out = {
                (k if type(k) is str else str(k)): (
                    v if type(v) in scalars else walk(v)
                )
                for k, v in value.items()
            }
            if literal_tags and len(out) == 1 and next(iter(out)) in _TAGS:
                return {_LITERAL_TAG: out}
            return out
        if kind is list:
            return [v if type(v) in scalars else walk(v) for v in value]
        if kind in scalars:
            return value
        return other(value)

    return walk


def _normalize_numbers(value: Any) -> Any:
    """Collapse numerically-equal values to one canonical representation.

    ``2`` and ``2.0`` must serialize identically or a parameter's Python
    type would silently change a run's fingerprint; ``-0.0`` folds into
    ``0``.  Non-finite floats have no JSON form and would make equal
    specs incomparable, so they are rejected outright.
    """
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


def _encode_other(value: Any) -> Any:
    if isinstance(value, datetime.datetime):
        return {_DATETIME_TAG: value.isoformat()}
    if isinstance(value, bytes):
        return {_BYTES_TAG: base64.b64encode(value).decode("ascii")}
    if isinstance(value, (set, frozenset)):
        return {_SET_TAG: sorted(_encode_special(v) for v in value)}
    if isinstance(value, (tuple, list)):
        return [_encode_special(v) for v in value]
    if isinstance(value, dict):
        return _encode_special(dict(value))
    return value


#: The JSON form of a value: tags for datetimes, bytes and sets.
_encode_special = _walker(_SCALARS, _encode_other, literal_tags=True)
#: ``_normalize_numbers(_encode_special(value))`` in one walk: a float
#: child is not kept as it is, it is normalized.
_encode_canonical = _walker(
    _SCALARS - {float},
    lambda value: _normalize_numbers(_encode_special(value)),
    literal_tags=True,
)


def _copy_other(value: Any) -> Any:
    if isinstance(value, (datetime.datetime, bytes)):
        return value
    if isinstance(value, (set, frozenset)):
        return set(value)
    if isinstance(value, (tuple, list)):
        return [json_copy(v) for v in value]
    if isinstance(value, dict):
        return json_copy(dict(value))
    if isinstance(value, (str, int, float)):
        return json.loads(json.dumps(value))  # a subclass replays as its base
    return copy.deepcopy(value)  # no JSON form: a durable store refuses it


#: A copy of a value sharing no dict, list or set with it, in the form
#: :func:`loads` of :func:`stable_dumps` gives back: a tuple becomes a
#: list, a ``frozenset`` a set, a non-``str`` key ``str(key)``; datetimes
#: and bytes are immutable and kept.
json_copy = _walker(_SCALARS, _copy_other, literal_tags=False)


def _decode_special(value: Any) -> Any:
    """The stored form of a JSON value: tags decoded, and every key and
    string value passed through ``sys.intern``, so an equal string in
    many decoded documents is one object.  Interned strings are mortal:
    each is freed with the last value that holds it."""
    kind = type(value)
    if kind is str:
        return intern(value)
    if kind is dict:
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
        return {intern(k): _decode_special(v) for k, v in value.items()}
    if kind is list:
        return [_decode_special(v) for v in value]
    return value


def dumps(value: Any, indent: int = None) -> str:
    """Serialize a value to JSON, supporting datetimes, bytes and sets."""
    return json.dumps(_encode_special(value), indent=indent)


def stable_dumps(value: Any) -> str:
    """Deterministic serialization (sorted keys, minimal separators)
    that round-trips *exactly*.

    The persistence twin of :func:`canonical_dumps`: stable output for
    diffable on-disk files, but no number normalization — a stored
    ``2.0`` must come back a float, not an int.  Hash :func:`canonical_dumps`
    output; persist this one.
    """
    return json.dumps(
        _encode_special(value), sort_keys=True, separators=(",", ":")
    )


class _TaggingEncoder(json.JSONEncoder):
    """The C encoder; ``default`` tags datetimes, bytes and sets and
    counts the tags in ``tagged``."""

    tagged = 0

    def default(self, value: Any) -> Any:
        if isinstance(value, (datetime.datetime, bytes, set, frozenset)):
            self.tagged += 1
            return _encode_other(value)
        return super().default(value)  # json.dumps's TypeError


_RECORD_ENCODER = _TaggingEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def record_dumps(value: Any) -> str:
    """:func:`stable_dumps` in one C-encoder pass, for a value of
    :func:`json_copy`'d documents (``str`` keys, no cycles: what every
    collection logs), encoded by the thread that owns its database.  A
    user dict like ``{"$set": …}`` needs the tag walk's ``$literal``
    wrapper; it shows as a ``{"$`` (a ``"`` in a string is escaped)
    that ``default`` did not emit."""
    _RECORD_ENCODER.tagged = 0
    text = _RECORD_ENCODER.encode(value)
    if text.count('{"$') > _RECORD_ENCODER.tagged:
        return stable_dumps(value)
    return text


def canonical_dumps(value: Any) -> str:
    """Serialize to a canonical JSON form suitable for hashing.

    Keys are sorted, separators are minimal, and numbers are normalized
    (``2.0`` → ``2``, ``-0.0`` → ``0``, NaN/inf rejected) so equal
    values — regardless of dict insertion order or int/float spelling —
    always serialize to equal strings.
    """
    return json.dumps(
        _encode_canonical(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def loads(text: str) -> Any:
    """Deserialize JSON produced by :func:`dumps` / :func:`canonical_dumps`."""
    value = json.loads(text)
    if '"$' in text or "\\u0024" in text:  # else no key can be a tag
        return _decode_special(value)
    return value


def record_loads(text: str) -> Any:
    """:func:`loads` of a logged record, always walked: the twin of
    :func:`record_dumps` that a replay decodes every record with, so the
    documents it holds share their equal keys and strings."""
    return _decode_special(json.loads(text))
