"""Mongo-style query evaluation.

Implements the subset of the MongoDB query language that gem5art-style
workflows use: implicit equality, comparison/membership operators, logical
combinators, existence checks, regular expressions, and dotted-path field
access.  The evaluator is pure (no collection state), which makes it easy to
property-test.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Sequence

from repro.common.errors import ValidationError

MISSING = object()
_MISSING = MISSING  # internal alias


def get_path(document: Dict[str, Any], path: str) -> Any:
    """Resolve a dotted path inside a document; returns a MISSING sentinel
    (internal) when any component is absent."""
    value: Any = document
    for part in path.split("."):
        if isinstance(value, dict) and part in value:
            value = value[part]
        else:
            return _MISSING
    return value


def set_path(document: Dict[str, Any], path: str, value: Any) -> str:
    """Assign ``value`` at a dotted path, by path copy.

    Every dict on the way down is replaced by a shallow copy of itself
    and a step that holds no dict (missing, or a scalar or list) by a
    fresh one, so the assignment mutates only ``document`` itself and
    dicts made here — whatever else still refers to the old subtrees
    keeps seeing them unchanged.  Whatever ``document`` held before,
    ``path`` holds ``value`` afterwards and every step above it a dict.

    Returns the path that was assigned: ``path``, or the shortest
    prefix of it that held no dict — below which nothing of the old
    value is left.
    """
    parts = path.split(".")
    assigned = None
    target = document
    for depth, part in enumerate(parts[:-1], 1):
        below = target.get(part)
        if isinstance(below, dict):
            below = dict(below)
        else:
            below = {}
            if assigned is None:
                assigned = ".".join(parts[:depth])
        target[part] = below
        target = below
    target[parts[-1]] = value
    return path if assigned is None else assigned


def unset_path(document: Dict[str, Any], path: str) -> None:
    """Remove what a dotted path holds, by path copy (see
    :func:`set_path`); a path through a step that holds no dict is
    already absent."""
    parts = path.split(".")
    target = document
    for part in parts[:-1]:
        below = target.get(part)
        if not isinstance(below, dict):
            return
        below = target[part] = dict(below)
        target = below
    target.pop(parts[-1], None)


def _compare(op: str, actual: Any, expected: Any) -> bool:
    if actual is _MISSING:
        return False
    try:
        if op == "$gt":
            return actual > expected
        if op == "$gte":
            return actual >= expected
        if op == "$lt":
            return actual < expected
        if op == "$lte":
            return actual <= expected
    except TypeError:
        return False
    raise ValidationError(f"unknown comparison operator: {op}")


def _match_condition(actual: Any, condition: Any) -> bool:
    """Match a single field against its condition (a literal or an operator
    document such as ``{"$gt": 3}``)."""
    if isinstance(condition, dict) and any(
        key.startswith("$") for key in condition
    ):
        for op, expected in condition.items():
            if op == "$eq":
                if not _values_equal(actual, expected):
                    return False
            elif op == "$ne":
                if _values_equal(actual, expected):
                    return False
            elif op in ("$gt", "$gte", "$lt", "$lte"):
                if not _compare(op, actual, expected):
                    return False
            elif op == "$in":
                if not _membership(actual, expected):
                    return False
            elif op == "$nin":
                if _membership(actual, expected):
                    return False
            elif op == "$exists":
                present = actual is not _MISSING
                if bool(expected) != present:
                    return False
            elif op == "$regex":
                if actual is _MISSING or not isinstance(actual, str):
                    return False
                if re.search(expected, actual) is None:
                    return False
            elif op == "$size":
                if not isinstance(actual, list):
                    return False
                if len(actual) != expected:
                    return False
            elif op == "$all":
                if not isinstance(expected, (list, tuple)):
                    raise ValidationError("$all requires a sequence")
                if not isinstance(actual, list):
                    return False
                if not all(item in actual for item in expected):
                    return False
            elif op == "$not":
                if _match_condition(actual, expected):
                    return False
            else:
                raise ValidationError(f"unknown query operator: {op}")
        return True
    return _values_equal(actual, condition)


def _membership(actual: Any, expected: Sequence[Any]) -> bool:
    if not isinstance(expected, (list, tuple, set)):
        raise ValidationError("$in/$nin requires a sequence")
    if actual is _MISSING:
        return False
    # Mongo semantics: an array field matches if any element matches.
    if isinstance(actual, list):
        return any(e in expected for e in actual) or actual in [
            list(x) for x in expected if isinstance(x, (list, tuple))
        ]
    return actual in expected


def _values_equal(actual: Any, expected: Any) -> bool:
    if actual is _MISSING:
        return expected is _MISSING
    # Mongo semantics: equality on an array field matches element-wise OR
    # by membership of the scalar.
    if isinstance(actual, list) and not isinstance(expected, list):
        return expected in actual
    return actual == expected


def matches(document: Dict[str, Any], query: Dict[str, Any]) -> bool:
    """Return ``True`` when ``document`` satisfies ``query``.

    An empty query matches every document, mirroring MongoDB.
    """
    if not isinstance(query, dict):
        raise ValidationError("query must be a dict")
    for key, condition in query.items():
        if key == "$and":
            if not all(matches(document, sub) for sub in condition):
                return False
        elif key == "$or":
            if not any(matches(document, sub) for sub in condition):
                return False
        elif key == "$nor":
            if any(matches(document, sub) for sub in condition):
                return False
        elif key.startswith("$"):
            raise ValidationError(f"unknown top-level operator: {key}")
        else:
            if not _match_condition(get_path(document, key), condition):
                return False
    return True


def sort_documents(
    documents: Iterable[Dict[str, Any]], spec: List[tuple]
) -> List[Dict[str, Any]]:
    """Sort documents by a list of (field, direction) pairs.

    Direction is 1 for ascending, -1 for descending, as in pymongo.  Missing
    fields sort first on ascending order.
    """
    result = list(documents)
    for field, direction in reversed(spec):
        if direction not in (1, -1):
            raise ValidationError("sort direction must be 1 or -1")

        def key(doc, field=field):
            value = get_path(doc, field)
            missing = value is _MISSING
            if missing:
                return (0, "")
            return (1, value)

        result.sort(key=key, reverse=(direction == -1))
    return result


def project(
    document: Dict[str, Any], fields: Sequence[str]
) -> Dict[str, Any]:
    """Return a copy of the document restricted to the given top-level or
    dotted fields (plus ``_id``, which Mongo always includes)."""
    output: Dict[str, Any] = {}
    if "_id" in document:
        output["_id"] = document["_id"]
    for field in fields:
        value = get_path(document, field)
        if value is _MISSING:
            continue
        set_path(output, field, value)
    return output
