"""Mongo-style query evaluation.

Implements what the artifact layer asks of MongoDB's query language:
equality on a field or a dotted path (an array field also equals each of
its elements, as in Mongo), ``$ne`` and ``$exists``.
:func:`check_query` refuses any other ``$``-operator with a
:class:`ValidationError` before a document is read, so a query outside
the language never returns a silent empty answer; :func:`matches`
evaluates a query that passed it.  The evaluator is pure (no collection
state), which makes it easy to property-test.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from repro.common.errors import ValidationError

MISSING = object()


def get_path(document: Dict[str, Any], path: str) -> Any:
    """Resolve a dotted path inside a document; returns ``MISSING`` when
    any component is absent."""
    value: Any = document
    for part in path.split("."):
        if isinstance(value, dict) and part in value:
            value = value[part]
        else:
            return MISSING
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


def _is_operator_document(condition: Any) -> bool:
    return isinstance(condition, dict) and any(
        key.startswith("$") for key in condition
    )


def check_query(query: Any) -> None:
    """Raise :class:`ValidationError` unless ``query`` is in the
    language: a dict with no top-level ``$`` key, whose operator
    documents hold only ``$ne`` and ``$exists``."""
    if not isinstance(query, dict):
        raise ValidationError("query must be a dict")
    for key, condition in query.items():
        if key.startswith("$"):
            raise ValidationError(f"unknown top-level operator: {key}")
        if _is_operator_document(condition):
            for op in condition:
                if op not in ("$ne", "$exists"):
                    raise ValidationError(f"unknown query operator: {op}")


def _match_condition(actual: Any, condition: Any) -> bool:
    """Match one field against its condition: a literal, or an operator
    document of ``$ne`` and ``$exists``."""
    if _is_operator_document(condition):
        for op, expected in condition.items():
            if op == "$ne":
                if _values_equal(actual, expected):
                    return False
            elif bool(expected) != (actual is not MISSING):  # $exists
                return False
        return True
    return _values_equal(actual, condition)


def _values_equal(actual: Any, expected: Any) -> bool:
    # MISSING equals nothing but itself.  Mongo semantics: equality on an
    # array field matches element-wise OR by membership of the scalar.
    if isinstance(actual, list) and not isinstance(expected, list):
        return expected in actual
    return actual == expected


def matches(document: Dict[str, Any], query: Dict[str, Any]) -> bool:
    """Return ``True`` when ``document`` satisfies ``query``, which
    :func:`check_query` has accepted.

    An empty query matches every document, mirroring MongoDB.
    """
    for key, condition in query.items():
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
            return (0,) if value is MISSING else (1, value)

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
        if value is MISSING:
            continue
        set_path(output, field, value)
    return output
