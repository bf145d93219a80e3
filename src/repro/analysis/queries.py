"""Flattening run documents into analyzable records."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.art.db import ArtifactDB


def run_records(db: ArtifactDB) -> List[Dict[str, Any]]:
    """Return one flat dict per run: parameters and result summary merged.

    Parameter keys come through as-is; result keys as-is; colliding names
    get a ``result_`` prefix.  Only runs that have results are returned.
    """
    records = []
    for doc in db.runs.find():
        results = doc.get("results")
        if results is None:
            continue
        record: Dict[str, Any] = {"run_id": doc["_id"], "kind": doc["kind"]}
        for key, value in doc.get("params", {}).items():
            record[key] = value
        for key, value in results.items():
            record[f"result_{key}" if key in record else key] = value
        records.append(record)
    return records


def group_by(
    records: Sequence[Dict[str, Any]],
    keys: Sequence[str],
) -> Dict[Tuple, List[Dict[str, Any]]]:
    """Group records by a tuple of field values."""
    groups: Dict[Tuple, List[Dict[str, Any]]] = {}
    for record in records:
        group_key = tuple(record.get(key) for key in keys)
        groups.setdefault(group_key, []).append(record)
    return groups


def pivot(
    records: Sequence[Dict[str, Any]],
    row_key: str,
    column_key: str,
    value_key: str,
) -> Dict[Any, Dict[Any, float]]:
    """Build a {row: {column: value}} table from records.

    Multiple records landing in one cell are reduced to their mean.
    """
    cells: Dict[Any, Dict[Any, List[float]]] = {}
    for record in records:
        row = record.get(row_key)
        column = record.get(column_key)
        value = record.get(value_key)
        if value is None:
            continue
        cells.setdefault(row, {}).setdefault(column, []).append(value)
    return {
        row: {
            column: sum(values) / len(values)
            for column, values in columns.items()
        }
        for row, columns in cells.items()
    }
