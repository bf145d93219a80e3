"""The m5 pseudo-instruction interface.

Guest software communicates with gem5 through magic "m5 ops": ``m5 exit``
terminates the simulation (how every boot-exit run ends), ``m5
checkpoint`` snapshots state (the hack-back flow), and
``m5 resetstats`` / ``m5 dumpstats`` bracket a region of interest so that
statistics cover only the measured code.  gem5-resources' run scripts
place these around each benchmark's ROI.

:class:`M5OpLog` records the ops a simulated run fired, with their tick
timestamps, and computes ROI timing from reset/dump pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import ValidationError
from repro.common.units import TICKS_PER_SECOND

#: Op names, matching the m5 utility's subcommands.
M5_EXIT = "exit"
M5_CHECKPOINT = "checkpoint"
M5_RESETSTATS = "resetstats"
M5_DUMPSTATS = "dumpstats"
KNOWN_OPS = (M5_EXIT, M5_CHECKPOINT, M5_RESETSTATS, M5_DUMPSTATS)


@dataclass
class M5OpLog:
    """Ordered record of (tick, op) events from one simulation."""

    events: List[Tuple[int, str]] = field(default_factory=list)

    def fire(self, tick: int, op: str) -> None:
        if op not in KNOWN_OPS:
            raise ValidationError(
                f"unknown m5 op {op!r}; known: {KNOWN_OPS}"
            )
        if self.events and tick < self.events[-1][0]:
            raise ValidationError("m5 ops must fire in tick order")
        self.events.append((tick, op))

    def ops(self) -> List[str]:
        return [op for _tick, op in self.events]

    def roi_ticks(self) -> Optional[int]:
        """Ticks between the first resetstats and the next dumpstats,
        or None when no complete ROI was marked."""
        reset_tick = None
        for tick, op in self.events:
            if op == M5_RESETSTATS and reset_tick is None:
                reset_tick = tick
            elif op == M5_DUMPSTATS and reset_tick is not None:
                return tick - reset_tick
        return None

    def roi_seconds(self) -> Optional[float]:
        ticks = self.roi_ticks()
        if ticks is None:
            return None
        return ticks / TICKS_PER_SECOND

    def to_list(self) -> List[dict]:
        return [
            {"tick": tick, "op": op} for tick, op in self.events
        ]
