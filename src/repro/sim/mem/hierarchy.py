"""Whole-memory-system timing: classic vs Ruby.

The paper's Fig 8 text describes the trade-off exactly: the classic memory
system is "fast but lacks coherence fidelity" while Ruby "models detailed
memory with cache coherence flexibility" — and the two Ruby protocols used
are ``MI_example`` (a minimal protocol with no shared/exclusive states) and
``MESI_Two_Level``.

This module turns a phase profile into an average-memory-access-time (AMAT)
figure plus a coherence penalty:

- classic: plain L1/L2/DRAM AMAT, no sharing cost (that is precisely its
  lack of coherence fidelity);
- Ruby: adds a directory-hop latency to every miss, plus invalidation
  misses on shared, written data that grow with core count.  ``MI_example``
  pays them far more heavily — with only Modified/Invalid states, even
  read-sharing ping-pongs lines.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.records import Frozen
from repro.sim.config import SystemConfig
from repro.sim.mem.cache import CacheModel


class MemoryTimings(Frozen):
    """Per-access outputs of the memory model for one phase: average
    cycles per (L1-reaching) access including miss handling, the share
    of accesses that reach DRAM (for bandwidth accounting), the L1 miss
    ratio, and the DRAM-latency part of ``amat_cycles`` — the part that
    inflates under bandwidth contention (queueing)."""

    _fields = (
        "amat_cycles", "dram_access_ratio", "l1_miss_ratio",
        "dram_stall_cycles",
    )

    def __init__(
        self, amat_cycles: float, dram_access_ratio: float,
        l1_miss_ratio: float, dram_stall_cycles: float = 0.0,
    ):
        vars(self).update(
            amat_cycles=amat_cycles, dram_access_ratio=dram_access_ratio,
            l1_miss_ratio=l1_miss_ratio, dram_stall_cycles=dram_stall_cycles,
        )


class MemorySystemModel:
    """Base class: classic behaviour; Ruby subclasses add coherence."""

    #: Extra cycles added to every L2/DRAM access by the protocol.
    directory_hop_cycles = 0
    #: Multiplier on invalidation traffic (0 == no coherence modelled).
    invalidation_weight = 0.0

    def __init__(self, config: SystemConfig):
        self.config = config

    @property
    def name(self) -> str:
        return self.config.memory_system

    def dram_latency_cycles(self) -> float:
        nanoseconds = self.config.dram.access_latency_ns
        return nanoseconds * self.config.cpu_clock_ghz

    def coherence_miss_ratio(
        self, shared_fraction: float, write_fraction: float, num_cpus: int
    ) -> float:
        """Extra misses (per access) from cross-core invalidations."""
        if num_cpus <= 1 or self.invalidation_weight == 0.0:
            return 0.0
        contention = (num_cpus - 1) / num_cpus
        return (
            self.invalidation_weight
            * shared_fraction
            * write_fraction
            * contention
        )

    def phase_timings(
        self,
        working_set_bytes: int,
        locality: float,
        shared_fraction: float,
        write_fraction: float,
        num_cpus: int,
    ) -> MemoryTimings:
        """Compute AMAT for one phase profile on this memory system."""
        if not 0.0 <= shared_fraction <= 1.0:
            raise ValidationError("shared_fraction must be in [0,1]")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValidationError("write_fraction must be in [0,1]")
        cache = CacheModel(
            self.config.l1d, self.config.l2, working_set_bytes, locality
        )
        l1_miss = cache.l1_miss_ratio()
        coherence_miss = self.coherence_miss_ratio(
            shared_fraction, write_fraction, num_cpus
        )
        # Invalidation misses bypass L1 reuse: they always pay at least an
        # L2 round trip, usually a remote/DRAM one under MI.
        total_l1_miss = min(1.0, l1_miss + coherence_miss)
        l2_local_miss = cache.l2_local_miss_ratio()
        l2_latency = self.config.l2.latency_cycles + self.directory_hop_cycles
        dram_latency = self.dram_latency_cycles() + self.directory_hop_cycles
        amat = self.config.l1d.latency_cycles + total_l1_miss * (
            l2_latency + l2_local_miss * dram_latency
        )
        dram_ratio = total_l1_miss * l2_local_miss
        return MemoryTimings(
            amat_cycles=amat,
            dram_access_ratio=dram_ratio,
            l1_miss_ratio=total_l1_miss,
            dram_stall_cycles=dram_ratio * dram_latency,
        )

    def bandwidth_bytes_per_second(self) -> float:
        return (
            self.config.dram.bandwidth_gbps
            * 1e9
            * self.config.memory_channels
        )


class ClassicMemorySystem(MemorySystemModel):
    """The fast, coherence-light classic hierarchy."""


class RubyMIExample(MemorySystemModel):
    """Ruby with the teaching-grade MI protocol: every shared access
    behaves like a write miss because there is no Shared state."""

    directory_hop_cycles = 20
    invalidation_weight = 3.0

    def coherence_miss_ratio(self, shared, write, num_cpus):
        # MI ping-pongs even read-shared lines: weight reads at half the
        # write cost rather than zero.
        if num_cpus <= 1:
            return 0.0
        effective_write = 0.5 + 0.5 * write
        contention = (num_cpus - 1) / num_cpus
        return self.invalidation_weight * shared * effective_write * (
            contention
        )


class RubyMESITwoLevel(MemorySystemModel):
    """Ruby MESI_Two_Level: real sharing states; writes invalidate."""

    directory_hop_cycles = 12
    invalidation_weight = 1.0


def build_memory_system(config: SystemConfig) -> MemorySystemModel:
    """Factory keyed on ``config.memory_system``."""
    if config.memory_system == "classic":
        return ClassicMemorySystem(config)
    if config.memory_system == "MI_example":
        return RubyMIExample(config)
    if config.memory_system == "MESI_Two_Level":
        return RubyMESITwoLevel(config)
    raise ValidationError(
        f"unknown memory system {config.memory_system!r}"
    )
