"""Series transforms: the arithmetic behind Figs 6, 7 and 9."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.errors import ValidationError


@dataclass
class Series:
    """A named, ordered label → value mapping."""

    name: str
    values: Dict[str, float] = field(default_factory=dict)

    def labels(self) -> List[str]:
        return list(self.values)

    def mean(self) -> float:
        if not self.values:
            raise ValidationError(f"series {self.name!r} is empty")
        return sum(self.values.values()) / len(self.values)

    def __getitem__(self, label: str) -> float:
        return self.values[label]

    def __len__(self) -> int:
        return len(self.values)


def difference_series(
    name: str, minuend: Series, subtrahend: Series
) -> Series:
    """Per-label ``minuend - subtrahend`` (Fig 6's absolute time diff)."""
    _check_same_labels(minuend, subtrahend)
    return Series(
        name=name,
        values={
            label: minuend[label] - subtrahend[label]
            for label in minuend.labels()
        },
    )


def speedup_series(name: str, baseline: Series, improved: Series) -> Series:
    """Per-label ``baseline / improved`` (Figs 7 and 9's speedups)."""
    _check_same_labels(baseline, improved)
    values = {}
    for label in baseline.labels():
        if improved[label] == 0:
            raise ValidationError(
                f"cannot compute speedup for {label!r}: zero time"
            )
        values[label] = baseline[label] / improved[label]
    return Series(name=name, values=values)


def normalize_to(series: Series, reference: Series) -> Series:
    """Per-label ``series / reference`` (Fig 9's normalization)."""
    return speedup_series(f"{series.name} (normalized)", series, reference)


def _check_same_labels(a: Series, b: Series) -> None:
    if a.labels() != b.labels():
        raise ValidationError(
            f"series {a.name!r} and {b.name!r} have different labels"
        )
