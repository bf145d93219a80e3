"""Simulation units.

gem5 counts time in *ticks* at 10^12 ticks per simulated second (1 ps per
tick).  We adopt the same convention so statistics read like gem5 output.
"""

from __future__ import annotations

#: Ticks per simulated second (1 tick == 1 picosecond), matching gem5.
TICKS_PER_SECOND = 10**12


def GHz(value: float) -> int:
    """Return the clock period in ticks for a frequency in GHz."""
    if value <= 0:
        raise ValueError("frequency must be positive")
    return int(TICKS_PER_SECOND / (value * 1e9))
