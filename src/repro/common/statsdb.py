"""gem5-style statistics collection.

Statistics are hierarchical (``system.cpu0.committedInsts``), typed (scalar
counters and per-key vectors), and dump to a ``stats.txt``-shaped text block
that downstream analysis parses — the "microarchitectural statistics" output
of Fig 1.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.common.errors import ValidationError


class StatsDB:
    """A flat namespace of dotted statistic names."""

    def __init__(self):
        self._scalars: Dict[str, float] = {}
        self._vectors: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------- scalars

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add to a scalar statistic, creating it at zero."""
        self._check_name(name)
        self._scalars[name] = self._scalars.get(name, 0.0) + amount

    def set(self, name: str, value: float) -> None:
        self._check_name(name)
        self._scalars[name] = float(value)

    def get(self, name: str, default: float = None) -> float:
        if name in self._scalars:
            return self._scalars[name]
        if default is not None:
            return default
        raise ValidationError(f"unknown statistic {name!r}")

    # ------------------------------------------------------------- vectors

    def vec_inc(self, name: str, key: str, amount: float = 1.0) -> None:
        self._check_name(name)
        vector = self._vectors.setdefault(name, {})
        vector[key] = vector.get(key, 0.0) + amount

    def vec_get(self, name: str) -> Dict[str, float]:
        if name not in self._vectors:
            raise ValidationError(f"unknown vector statistic {name!r}")
        return dict(self._vectors[name])

    # ------------------------------------------------------------- derived

    def ratio(self, numerator: str, denominator: str) -> float:
        """Safe ratio of two scalars (0 when the denominator is 0)."""
        bottom = self.get(denominator, default=0.0)
        if bottom == 0:
            return 0.0
        return self.get(numerator, default=0.0) / bottom

    # -------------------------------------------------------------- output

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = dict(self._scalars)
        for name, vector in self._vectors.items():
            for key, value in vector.items():
                data[f"{name}::{key}"] = value
        return data

    def dump(self) -> str:
        """Render in the two-column gem5 ``stats.txt`` format."""
        lines = ["---------- Begin Simulation Statistics ----------"]
        for name in sorted(self.to_dict()):
            value = self.to_dict()[name]
            rendered = (
                f"{value:.6f}".rstrip("0").rstrip(".")
                if isinstance(value, float)
                else str(value)
            )
            lines.append(f"{name:<60} {rendered}")
        lines.append("---------- End Simulation Statistics   ----------")
        return "\n".join(lines)

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or name != name.strip():
            raise ValidationError(f"bad statistic name {name!r}")
