"""A GCN3-class GPU timing model — the gem5 GPU-model substitute.

Use-case 3 of the paper studies how the gem5 GCN3 GPU model's two register
allocation schemes change performance across 29 workloads.  The result is
mechanistic, and the mechanisms are what this package implements:

- the **simple** allocator schedules one wavefront per SIMD16 at a time,
  bounding occupancy at 1 wave/SIMD but avoiding inter-wave stalls;
- the **dynamic** allocator admits up to the hardware maximum wavefronts
  per SIMD whenever registers (and LDS) suffice, which hides memory latency
  — but the publicly-available GCN3 model's *simplistic dependence
  tracking* makes every extra resident wavefront add issue stalls, so
  occupancy is not free;
- synchronization-heavy workloads serialize in critical sections whose
  retry cost grows with the number of concurrent wavefronts.

Together these reproduce Fig 9's surprise: the simple allocator wins on
average, HeteroSync mutexes and the DNNMark pool layers regress hardest
under dynamic allocation, small kernels are indifferent, and workloads with
abundant parallel work improve.
"""

from repro.gpu.config import GPUConfig
from repro.gpu.kernels import GPUKernel
from repro.gpu.regalloc import (
    SimpleRegisterAllocator,
    DynamicRegisterAllocator,
    build_register_allocator,
    REGISTER_ALLOCATORS,
)
from repro.gpu.device import GPUDevice, GPURunResult
from repro.gpu.workloads import (
    GPU_WORKLOADS,
    WORKLOADS_BY_SUITE,
    get_gpu_workload,
)

__all__ = [
    "GPUConfig",
    "GPUKernel",
    "SimpleRegisterAllocator",
    "DynamicRegisterAllocator",
    "build_register_allocator",
    "REGISTER_ALLOCATORS",
    "GPUDevice",
    "GPURunResult",
    "GPU_WORKLOADS",
    "WORKLOADS_BY_SUITE",
    "get_gpu_workload",
]
