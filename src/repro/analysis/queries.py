"""Reshaping a sweep's records (:meth:`repro.art.Experiment.records`):
grouping and pivoting; nothing here reads the database."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple


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
