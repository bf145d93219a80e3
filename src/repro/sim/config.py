"""Simulated-system configuration.

A :class:`SystemConfig` is the "parameters to configuration" box of the
paper's Fig 1 workflow: CPU model and count, clock, memory system and
protocol, cache geometry, and DRAM technology.  Table II (PARSEC) and the
Fig 8 sweep are expressed as instances of this class.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import ValidationError
from repro.common.records import Frozen
from repro.common.units import GHz

#: CPU models, in the paper's vocabulary.
CPU_TYPES = ("kvm", "atomic", "timing", "o3")

#: Memory systems swept by the boot tests: the classic hierarchy and two
#: Ruby protocols.
MEMORY_SYSTEMS = ("classic", "MI_example", "MESI_Two_Level")


class MemoryTech(Frozen):
    """A DRAM technology point."""

    _fields = ("name", "access_latency_ns", "bandwidth_gbps")

    def __init__(
        self, name: str, access_latency_ns: float, bandwidth_gbps: float
    ):
        vars(self).update(
            name=name, access_latency_ns=access_latency_ns,
            bandwidth_gbps=bandwidth_gbps,
        )


#: The technologies gem5 ships; the paper uses DDR3_1600_8x8 throughout.
MEMORY_TECHS = {
    "DDR3_1600_8x8": MemoryTech("DDR3_1600_8x8", 45.0, 12.8),
    "DDR4_2400_16x4": MemoryTech("DDR4_2400_16x4", 38.0, 19.2),
    "HBM_1000_4H_1x64": MemoryTech("HBM_1000_4H_1x64", 30.0, 64.0),
}


class CacheConfig(Frozen):
    """One cache level's geometry and timing."""

    _fields = ("size_bytes", "assoc", "latency_cycles")

    def __init__(self, size_bytes: int, assoc: int, latency_cycles: int):
        if size_bytes <= 0 or assoc <= 0:
            raise ValidationError("cache size/assoc must be positive")
        vars(self).update(
            size_bytes=size_bytes, assoc=assoc, latency_cycles=latency_cycles,
        )


class SystemConfig(Frozen):
    """A complete simulated-machine description.

    ``prefetcher`` enables the stride prefetcher model (off, as in the
    paper's baselines).  The clock, caches and prefetcher strength are
    the same on every system the paper simulates: class constants.
    """

    cpu_clock_ghz = 3.0
    l1d = CacheConfig(32 * 1024, 8, 2)
    l2 = CacheConfig(1024 * 1024, 16, 12)
    #: Fraction of a perfectly-regular stream's DRAM stall the
    #: prefetcher hides when enabled.
    prefetcher_effectiveness = 0.7

    _fields = (
        "cpu_type", "num_cpus", "memory_system", "memory_tech",
        "memory_channels", "prefetcher",
    )

    def __init__(
        self, cpu_type: str = "timing", num_cpus: int = 1,
        memory_system: str = "classic", memory_tech: str = "DDR3_1600_8x8",
        memory_channels: int = 1, prefetcher: bool = False,
    ):
        if cpu_type not in CPU_TYPES:
            raise ValidationError(
                f"unknown cpu type {cpu_type!r}; one of {CPU_TYPES}"
            )
        if memory_system not in MEMORY_SYSTEMS:
            raise ValidationError(
                f"unknown memory system {memory_system!r}; "
                f"one of {MEMORY_SYSTEMS}"
            )
        if memory_tech not in MEMORY_TECHS:
            raise ValidationError(f"unknown memory tech {memory_tech!r}")
        if num_cpus < 1:
            raise ValidationError("num_cpus must be >= 1")
        if memory_channels < 1:
            raise ValidationError("memory_channels must be >= 1")
        vars(self).update(
            cpu_type=cpu_type, num_cpus=num_cpus, memory_system=memory_system,
            memory_tech=memory_tech, memory_channels=memory_channels,
            prefetcher=prefetcher,
        )

    @property
    def clock_period_ticks(self) -> int:
        return GHz(self.cpu_clock_ghz)

    @property
    def dram(self) -> MemoryTech:
        return MEMORY_TECHS[self.memory_tech]

    def describe(self) -> str:
        return (
            f"{self.num_cpus}x {self.cpu_type} @ {self.cpu_clock_ghz} GHz, "
            f"{self.memory_system} memory, {self.memory_tech} "
            f"x{self.memory_channels}"
        )

    def key(self) -> Tuple:
        """A hashable identity used by the fault model and run records."""
        return (
            self.cpu_type,
            self.num_cpus,
            self.memory_system,
            self.memory_tech,
            self.memory_channels,
        )
