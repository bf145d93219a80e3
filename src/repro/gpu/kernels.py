"""GPU kernel descriptors.

A :class:`GPUKernel` is the analytic profile of one launched grid: how many
workgroups and wavefronts it spawns, its per-wavefront register and LDS
demand, and the per-instruction behaviour (memory intensity, dependence
density, critical-section synchronization) that the compute-unit timing
model consumes.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.records import Frozen


class GPUKernel(Frozen):
    """One kernel launch's static profile.

    Wavefronts have up to 64 threads.  ``memory_intensity``: the share of
    instructions that access memory; ``dependency_density``: of memory
    operations whose consumer follows closely enough to expose the
    latency (the per-wavefront stall probability).  Each wavefront
    enters ``sync_ops_per_wavefront`` mutex-style critical sections and
    pays ``contention_coefficient`` more per additional contender
    (spin-with-backoff and sleep mutexes are cheaper than raw
    fetch-and-add spinning); ``per_cu_sync`` is the "Uniq" HeteroSync
    style, one lock per CU instead of one global lock.
    """

    #: Scalar registers demanded by each wavefront.
    sregs_per_wavefront = 16

    _fields = (
        "name", "num_workgroups", "wavefronts_per_workgroup",
        "vregs_per_wavefront", "lds_bytes_per_workgroup",
        "instructions_per_wavefront", "memory_intensity",
        "dependency_density", "sync_ops_per_wavefront",
        "critical_section_cycles", "contention_coefficient", "per_cu_sync",
    )

    def __init__(
        self, name: str, num_workgroups: int,
        wavefronts_per_workgroup: int = 1, vregs_per_wavefront: int = 64,
        lds_bytes_per_workgroup: int = 0,
        instructions_per_wavefront: int = 2000,
        memory_intensity: float = 0.15, dependency_density: float = 0.5,
        sync_ops_per_wavefront: float = 0.0,
        critical_section_cycles: float = 200.0,
        contention_coefficient: float = 0.5, per_cu_sync: bool = False,
    ):
        vars(self).update(
            name=name, num_workgroups=num_workgroups,
            wavefronts_per_workgroup=wavefronts_per_workgroup,
            vregs_per_wavefront=vregs_per_wavefront,
            lds_bytes_per_workgroup=lds_bytes_per_workgroup,
            instructions_per_wavefront=instructions_per_wavefront,
            memory_intensity=memory_intensity,
            dependency_density=dependency_density,
            sync_ops_per_wavefront=sync_ops_per_wavefront,
            critical_section_cycles=critical_section_cycles,
            contention_coefficient=contention_coefficient,
            per_cu_sync=per_cu_sync,
        )
        if not name:
            raise ValidationError("kernel needs a name")
        for field in (
            "num_workgroups", "wavefronts_per_workgroup",
            "vregs_per_wavefront", "instructions_per_wavefront",
        ):
            value = getattr(self, field)
            if type(value) is not int or value <= 0:
                raise ValidationError(f"{field} must be a positive int")
        for field in ("memory_intensity", "dependency_density"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{field} must be within [0, 1]")
        if self.sync_ops_per_wavefront < 0:
            raise ValidationError("sync_ops_per_wavefront must be >= 0")
        if self.lds_bytes_per_workgroup < 0:
            raise ValidationError("lds_bytes_per_workgroup must be >= 0")
        if self.contention_coefficient < 0:
            raise ValidationError("contention_coefficient must be >= 0")

    @property
    def total_wavefronts(self) -> int:
        return self.num_workgroups * self.wavefronts_per_workgroup

    @property
    def total_instructions(self) -> int:
        return self.total_wavefronts * self.instructions_per_wavefront
