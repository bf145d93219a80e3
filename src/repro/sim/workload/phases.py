"""Phase-level workload description.

Benchmarks are modelled as ordered phases, each with a statistical profile
of the properties the timing models consume.  This is the standard analytic
abstraction: the experiments in the paper measure how *system configuration*
changes execution, so what must be faithful is each workload's parallelism,
memory behaviour and synchronization density — not its arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.common.errors import ValidationError


@dataclass(frozen=True)
class Phase:
    """One homogeneous region of a workload."""

    name: str
    #: Dynamic instructions in the reference (GCC 7.4) build.
    instructions: int
    #: Maximum threads that can make progress concurrently (1 == serial).
    parallelism: int = 1
    #: Memory accesses per 1000 instructions.
    mem_accesses_per_kinst: float = 300.0
    #: Bytes touched with uniform reuse during the phase.
    working_set_bytes: int = 4 * 1024 * 1024
    #: Fraction of accesses absorbed by near-register reuse (L1 hits).
    locality: float = 0.92
    #: Fraction of the working set shared between threads.
    shared_fraction: float = 0.05
    #: Fraction of accesses that are writes.
    write_fraction: float = 0.30
    #: Synchronization events (locks/barriers) per 1000 instructions.
    sync_per_kinst: float = 0.0
    #: Sensitivity of this phase to OS scheduler placement quality (0..1):
    #: how much load imbalance the scheduler can add or remove.
    imbalance_sensitivity: float = 0.15
    #: How regular (stride-predictable) the access stream is (0..1):
    #: 1.0 is pure streaming, 0.0 is pointer chasing.  Consumed by the
    #: optional prefetcher model.
    access_regularity: float = 0.5

    def __post_init__(self):
        if self.instructions < 0:
            raise ValidationError("instructions must be >= 0")
        if self.parallelism < 1:
            raise ValidationError("parallelism must be >= 1")
        for bounded, value in (
            ("locality", self.locality),
            ("shared_fraction", self.shared_fraction),
            ("write_fraction", self.write_fraction),
            ("imbalance_sensitivity", self.imbalance_sensitivity),
            ("access_regularity", self.access_regularity),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{bounded} must be within [0, 1]")
        if self.mem_accesses_per_kinst < 0 or self.sync_per_kinst < 0:
            raise ValidationError("per-kinst rates must be >= 0")


@dataclass(frozen=True)
class Workload:
    """An ordered tuple of phases with a name for stats/provenance."""

    name: str
    phases: Tuple[Phase, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.name:
            raise ValidationError("workload needs a name")
        if not self.phases:
            raise ValidationError("workload needs at least one phase")

    def total_instructions(self) -> int:
        return sum(phase.instructions for phase in self.phases)
