"""JSON encoding helpers with a canonical form.

The storage engine frames each logged operation's canonical JSON (a length
and a CRC32 around it, see :mod:`repro.db.engine.wal`), and artifact hashes
must be stable across runs, so we need a *canonical* serialization: sorted keys, no
insignificant whitespace, and explicit handling of the handful of non-JSON
types the library uses (datetimes, tuples, sets, bytes).
"""

from __future__ import annotations

import base64
import datetime
import json
import math
from typing import Any

_BYTES_TAG = "$bytes"
_DATETIME_TAG = "$datetime"
_SET_TAG = "$set"
#: Wraps a *user* dict whose only key is one of the tags (or this one),
#: so that ``loads(dumps(v)) == v`` holds for every JSON value.
_LITERAL_TAG = "$literal"
_TAGS = frozenset({_BYTES_TAG, _DATETIME_TAG, _SET_TAG, _LITERAL_TAG})


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


def canonical_dumps(value: Any) -> str:
    """Serialize to a canonical JSON form suitable for hashing.

    Keys are sorted, separators are minimal, and numbers are normalized
    (``2.0`` → ``2``, ``-0.0`` → ``0``, NaN/inf rejected) so equal
    values — regardless of dict insertion order or int/float spelling —
    always serialize to equal strings.
    """
    return json.dumps(
        _normalize_numbers(_encode_special(value)),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def loads(text: str) -> Any:
    """Deserialize JSON produced by :func:`dumps` / :func:`canonical_dumps`."""
    return _decode_special(json.loads(text))
