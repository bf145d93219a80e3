"""GPU register files and the two register-allocation policies.

Quoting the paper: the GCN3 model offers "a simple allocation scheme that
allocates 1 wavefront per SIMD16 in a compute unit at a time to limit
stalls, and a dynamic allocation scheme that always allows up to the max
wavefronts per CU at a time by monitoring per-wavefront register
requirements compared to the number of available registers per CU."

The allocator classes answer the scheduling question the compute unit
asks: *how many wavefronts may be resident per SIMD for this kernel?*
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.gpu.config import GPUConfig
from repro.gpu.kernels import GPUKernel


class RegisterAllocatorBase:
    """Common interface: occupancy decision + feasibility check."""

    name = "base"

    def __init__(self, config: GPUConfig):
        self.config = config

    def check_feasible(self, kernel: GPUKernel) -> None:
        """A kernel whose single wavefront cannot fit can never launch."""
        if kernel.vregs_per_wavefront > (
            self.config.vector_registers_per_simd
        ):
            raise ValidationError(
                f"kernel {kernel.name!r} needs "
                f"{kernel.vregs_per_wavefront} vregs/wavefront; a SIMD "
                f"has {self.config.vector_registers_per_simd}"
            )
        if kernel.lds_bytes_per_workgroup > self.config.lds_bytes_per_cu:
            raise ValidationError(
                f"kernel {kernel.name!r} needs "
                f"{kernel.lds_bytes_per_workgroup} LDS bytes/WG; a CU "
                f"has {self.config.lds_bytes_per_cu}"
            )

    def wavefront_slots_per_simd(self, kernel: GPUKernel) -> int:
        raise NotImplementedError


class SimpleRegisterAllocator(RegisterAllocatorBase):
    """One wavefront per SIMD16 at a time (stall-avoidance by fiat)."""

    name = "simple"

    def wavefront_slots_per_simd(self, kernel: GPUKernel) -> int:
        self.check_feasible(kernel)
        return 1


class DynamicRegisterAllocator(RegisterAllocatorBase):
    """Up to the hardware max wavefronts, bounded by register and LDS
    availability per wavefront/workgroup."""

    name = "dynamic"

    def wavefront_slots_per_simd(self, kernel: GPUKernel) -> int:
        self.check_feasible(kernel)
        by_vregs = (
            self.config.vector_registers_per_simd
            // kernel.vregs_per_wavefront
        )
        by_lds = self._slots_by_lds(kernel)
        slots = min(
            self.config.max_wavefronts_per_simd, by_vregs, by_lds
        )
        return max(1, slots)

    def _slots_by_lds(self, kernel: GPUKernel) -> int:
        if kernel.lds_bytes_per_workgroup == 0:
            return self.config.max_wavefronts_per_simd
        workgroups_per_cu = (
            self.config.lds_bytes_per_cu // kernel.lds_bytes_per_workgroup
        )
        wavefronts_per_cu = (
            workgroups_per_cu * kernel.wavefronts_per_workgroup
        )
        return max(1, wavefronts_per_cu // self.config.simds_per_cu)


REGISTER_ALLOCATORS = ("simple", "dynamic")


def build_register_allocator(
    name: str, config: GPUConfig
) -> RegisterAllocatorBase:
    if name == "simple":
        return SimpleRegisterAllocator(config)
    if name == "dynamic":
        return DynamicRegisterAllocator(config)
    raise ValidationError(
        f"unknown register allocator {name!r}; "
        f"one of {REGISTER_ALLOCATORS}"
    )
