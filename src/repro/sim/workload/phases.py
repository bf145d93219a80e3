"""Phase-level workload description.

Benchmarks are modelled as ordered phases, each with a statistical profile
of the properties the timing models consume.  This is the standard analytic
abstraction: the experiments in the paper measure how *system configuration*
changes execution, so what must be faithful is each workload's parallelism,
memory behaviour and synchronization density — not its arithmetic.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import ValidationError
from repro.common.records import Frozen


class Phase(Frozen):
    """One homogeneous region of a workload."""

    _fields = (
        "name", "instructions", "parallelism", "mem_accesses_per_kinst",
        "working_set_bytes", "locality", "shared_fraction",
        "write_fraction", "sync_per_kinst", "imbalance_sensitivity",
        "access_regularity",
    )

    def __init__(
        self,
        name: str,
        instructions: int,  # dynamic, in the reference (GCC 7.4) build
        parallelism: int = 1,  # threads that can run at once (1: serial)
        mem_accesses_per_kinst: float = 300.0,  # per 1000 instructions
        working_set_bytes: int = 4 * 1024 * 1024,  # touched, uniform reuse
        locality: float = 0.92,  # share of accesses that hit L1 (reuse)
        shared_fraction: float = 0.05,  # of the working set, by threads
        write_fraction: float = 0.30,  # share of accesses that are writes
        sync_per_kinst: float = 0.0,  # locks/barriers per 1000 instructions
        # 0..1: how much load imbalance OS thread placement adds or removes
        imbalance_sensitivity: float = 0.15,
        # 0..1, how stride-predictable the access stream is (the optional
        # prefetcher model): 1.0 is pure streaming, 0.0 pointer chasing
        access_regularity: float = 0.5,
    ):
        if instructions < 0:
            raise ValidationError("instructions must be >= 0")
        if parallelism < 1:
            raise ValidationError("parallelism must be >= 1")
        for bounded, value in (
            ("locality", locality),
            ("shared_fraction", shared_fraction),
            ("write_fraction", write_fraction),
            ("imbalance_sensitivity", imbalance_sensitivity),
            ("access_regularity", access_regularity),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{bounded} must be within [0, 1]")
        if mem_accesses_per_kinst < 0 or sync_per_kinst < 0:
            raise ValidationError("per-kinst rates must be >= 0")
        vars(self).update(
            name=name, instructions=instructions, parallelism=parallelism,
            mem_accesses_per_kinst=mem_accesses_per_kinst,
            working_set_bytes=working_set_bytes, locality=locality,
            shared_fraction=shared_fraction, write_fraction=write_fraction,
            sync_per_kinst=sync_per_kinst,
            imbalance_sensitivity=imbalance_sensitivity,
            access_regularity=access_regularity,
        )


class Workload(Frozen):
    """An ordered tuple of phases with a name for stats/provenance."""

    _fields = ("name", "phases")

    def __init__(self, name: str, phases: Tuple[Phase, ...] = ()):
        if not name:
            raise ValidationError("workload needs a name")
        if not phases:
            raise ValidationError("workload needs at least one phase")
        vars(self).update(name=name, phases=phases)

    def total_instructions(self) -> int:
        return sum(phase.instructions for phase in self.phases)
