"""Table IV: the 29 GPU workloads and their input sizes.

Each entry pairs the paper's (application, input size) with a
:class:`~repro.gpu.kernels.GPUKernel` profile.  Grid dimensions follow the
stated inputs (e.g. ``MatrixTranspose 1024x1024`` launches a 4096-workgroup
grid of 256-thread workgroups; the HeteroSync microbenchmarks run "8
WGs/CU, 2 iters" of 10 loads/stores per thread per critical section).
Behavioural coefficients (memory-dependence exposure, lock-contention
retry cost) are calibration constants chosen per suite so the *mechanism*
— occupancy vs dependence-tracking stalls vs lock contention — reproduces
Fig 9's per-category outcomes; EXPERIMENTS.md documents the calibration.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import NotFoundError
from repro.common.records import Frozen
from repro.gpu.kernels import GPUKernel

_KiB = 1024


class GPUWorkload(Frozen):
    """One Table IV row: suite, citation-style input, kernel profile."""

    _fields = ("name", "suite", "input_size", "kernel", "expected_dynamic")

    def __init__(
        self, name: str, suite: str, input_size: str, kernel: GPUKernel,
        # The paper's expectation for the dynamic allocator ("better",
        # "worse", "neutral"), used by tests and the bench.
        expected_dynamic: str,
    ):
        vars(self).update(
            name=name, suite=suite, input_size=input_size, kernel=kernel,
            expected_dynamic=expected_dynamic,
        )


def _hip(name, input_size, kernel, expected):
    return GPUWorkload(name, "hip-samples", input_size, kernel, expected)


def _hs(name, kernel, expected="worse"):
    return GPUWorkload(
        name,
        "HeteroSync",
        "10 Ld/St/thr/CS, 8 WGs/CU, 2 iters",
        kernel,
        expected,
    )


def _dnn(name, input_size, kernel, expected):
    return GPUWorkload(name, "DNNMark", input_size, kernel, expected)


#: HeteroSync shared profile: compute-light spinning kernels where the
#: lock, not the pipe, is the bottleneck.
def _hs_kernel(name, contention, sync_ops=20.0, per_cu=False, lds=0):
    return GPUKernel(
        name=name,
        num_workgroups=32,  # 8 WGs/CU x 4 CUs
        wavefronts_per_workgroup=1,
        vregs_per_wavefront=64,
        instructions_per_wavefront=800,
        memory_intensity=0.06,
        dependency_density=0.01,
        sync_ops_per_wavefront=sync_ops,
        critical_section_cycles=50.0,
        contention_coefficient=contention,
        per_cu_sync=per_cu,
        lds_bytes_per_workgroup=lds,
    )


_WORKLOAD_LIST: List[GPUWorkload] = [
    # ------------------------------------------------------- hip-samples
    _hip(
        "2dshfl",
        "4x4",
        GPUKernel(
            name="2dshfl",
            num_workgroups=1,
            instructions_per_wavefront=500,
            vregs_per_wavefront=32,
            memory_intensity=0.20,
            dependency_density=0.10,
        ),
        "neutral",
    ),
    _hip(
        "dynamic_shared",
        "16x16",
        GPUKernel(
            name="dynamic_shared",
            num_workgroups=4,
            instructions_per_wavefront=600,
            vregs_per_wavefront=32,
            lds_bytes_per_workgroup=4 * _KiB,
            memory_intensity=0.20,
            dependency_density=0.10,
        ),
        "neutral",
    ),
    _hip(
        "inline_asm",
        "1024x1024",
        GPUKernel(
            name="inline_asm",
            num_workgroups=4096,
            wavefronts_per_workgroup=4,
            vregs_per_wavefront=48,
            instructions_per_wavefront=1500,
            memory_intensity=0.35,
            dependency_density=0.0399,
        ),
        "better",
    ),
    _hip(
        "MatrixTranspose",
        "1024x1024",
        GPUKernel(
            name="MatrixTranspose",
            num_workgroups=4096,
            wavefronts_per_workgroup=4,
            vregs_per_wavefront=32,
            instructions_per_wavefront=1200,
            memory_intensity=0.40,
            dependency_density=0.03946,
        ),
        "better",
    ),
    _hip(
        "sharedMemory",
        "64x64",
        GPUKernel(
            name="sharedMemory",
            num_workgroups=16,
            wavefronts_per_workgroup=4,
            vregs_per_wavefront=64,
            instructions_per_wavefront=900,
            lds_bytes_per_workgroup=16 * _KiB,
            memory_intensity=0.127,
            dependency_density=0.019756,
        ),
        "neutral",
    ),
    _hip(
        "shfl",
        "4x4",
        GPUKernel(
            name="shfl",
            num_workgroups=1,
            instructions_per_wavefront=500,
            vregs_per_wavefront=32,
            memory_intensity=0.20,
            dependency_density=0.10,
        ),
        "neutral",
    ),
    _hip(
        "stream",
        "32x32",
        GPUKernel(
            name="stream",
            num_workgroups=64,
            wavefronts_per_workgroup=4,
            vregs_per_wavefront=48,
            instructions_per_wavefront=1000,
            memory_intensity=0.35,
            dependency_density=0.0301,
        ),
        "better",
    ),
    _hip(
        "unroll",
        "4x4",
        GPUKernel(
            name="unroll",
            num_workgroups=1,
            instructions_per_wavefront=800,
            vregs_per_wavefront=32,
            memory_intensity=0.20,
            dependency_density=0.10,
        ),
        "neutral",
    ),
    # -------------------------------------------------------- HeteroSync
    _hs("SpinMutexEBO", _hs_kernel("SpinMutexEBO", contention=0.075)),
    _hs("FAMutex", _hs_kernel("FAMutex", contention=0.11)),
    _hs("SleepMutex", _hs_kernel("SleepMutex", contention=0.04)),
    _hs(
        "SpinMutexEBOUniq",
        _hs_kernel("SpinMutexEBOUniq", contention=0.17, per_cu=True),
    ),
    _hs(
        "FAMutexUniq",
        _hs_kernel("FAMutexUniq", contention=0.25, per_cu=True),
    ),
    _hs(
        "SleepMutexUniq",
        _hs_kernel("SleepMutexUniq", contention=0.09, per_cu=True),
    ),
    _hs(
        "LFTreeBarrUniq",
        _hs_kernel(
            "LFTreeBarrUniq", contention=0.10, sync_ops=8.0, per_cu=True
        ),
    ),
    _hs(
        "LFTreeBarrUniqLocalExch",
        _hs_kernel(
            "LFTreeBarrUniqLocalExch",
            contention=0.06,
            sync_ops=8.0,
            per_cu=True,
            lds=8 * _KiB,
        ),
    ),
    # ----------------------------------------------------------- DNNMark
    _dnn(
        "fwd_bypass",
        "NCHW = 100, 1000, 1, 1",
        GPUKernel(
            name="fwd_bypass",
            num_workgroups=8,
            instructions_per_wavefront=1000,
            vregs_per_wavefront=48,
            memory_intensity=0.25,
            dependency_density=0.02,
        ),
        "neutral",
    ),
    _dnn(
        "bwd_bypass",
        "NCHW = 100, 1000, 1, 1",
        GPUKernel(
            name="bwd_bypass",
            num_workgroups=8,
            instructions_per_wavefront=1000,
            vregs_per_wavefront=48,
            memory_intensity=0.25,
            dependency_density=0.02,
        ),
        "neutral",
    ),
    _dnn(
        "fwd_bn",
        "NCHW = 100, 1000, 1, 1",
        GPUKernel(
            name="fwd_bn",
            num_workgroups=390,
            instructions_per_wavefront=1400,
            vregs_per_wavefront=96,
            memory_intensity=0.25,
            dependency_density=0.045714,
        ),
        "better",
    ),
    _dnn(
        "bwd_bn",
        "NCHW = 100, 1000, 1, 1",
        GPUKernel(
            name="bwd_bn",
            num_workgroups=390,
            instructions_per_wavefront=1500,
            vregs_per_wavefront=96,
            memory_intensity=0.25,
            dependency_density=0.045714,
        ),
        "better",
    ),
    _dnn(
        "fwd_composed_model",
        "NCHW = 32, 32, 3, 1",
        GPUKernel(
            name="fwd_composed_model",
            num_workgroups=12,
            instructions_per_wavefront=2000,
            vregs_per_wavefront=64,
            memory_intensity=0.20,
            dependency_density=0.03,
        ),
        "neutral",
    ),
    _dnn(
        "bwd_composed_model",
        "NCHW = 32, 32, 3, 1",
        GPUKernel(
            name="bwd_composed_model",
            num_workgroups=12,
            instructions_per_wavefront=2200,
            vregs_per_wavefront=64,
            memory_intensity=0.20,
            dependency_density=0.03,
        ),
        "neutral",
    ),
    _dnn(
        "fwd_pool",
        "NCHW = 100, 3, 256, 256",
        GPUKernel(
            name="fwd_pool",
            num_workgroups=4800,
            wavefronts_per_workgroup=2,
            vregs_per_wavefront=40,
            instructions_per_wavefront=1100,
            memory_intensity=0.25,
            dependency_density=0.018673,
        ),
        "worse",
    ),
    _dnn(
        "bwd_pool",
        "NCHW = 100, 3, 256, 256",
        GPUKernel(
            name="bwd_pool",
            num_workgroups=4800,
            wavefronts_per_workgroup=2,
            vregs_per_wavefront=40,
            instructions_per_wavefront=1200,
            memory_intensity=0.25,
            dependency_density=0.021023,
        ),
        "worse",
    ),
    _dnn(
        "fwd_softmax",
        "NCHW = 100, 1000, 1, 1",
        GPUKernel(
            name="fwd_softmax",
            num_workgroups=390,
            instructions_per_wavefront=1300,
            vregs_per_wavefront=64,
            memory_intensity=0.30,
            dependency_density=0.03517,
        ),
        "better",
    ),
    _dnn(
        "bwd_softmax",
        "NCHW = 100, 1000, 1, 1",
        GPUKernel(
            name="bwd_softmax",
            num_workgroups=390,
            instructions_per_wavefront=1350,
            vregs_per_wavefront=64,
            memory_intensity=0.30,
            dependency_density=0.03517,
        ),
        "better",
    ),
    # ------------------------------------------------- DOE proxy apps etc.
    GPUWorkload(
        name="HACC",
        suite="halo-finder",
        input_size="(forceTreeTest) 0.5 0.1 64 0.1 100 N 12 rcb",
        kernel=GPUKernel(
            name="HACC",
            num_workgroups=16,
            instructions_per_wavefront=3000,
            vregs_per_wavefront=128,
            memory_intensity=0.20,
            dependency_density=0.03,
        ),
        expected_dynamic="neutral",
    ),
    GPUWorkload(
        name="LULESH",
        suite="lulesh",
        input_size="1 iteration",
        kernel=GPUKernel(
            name="LULESH",
            num_workgroups=8,
            wavefronts_per_workgroup=2,
            instructions_per_wavefront=5000,
            vregs_per_wavefront=200,
            memory_intensity=0.22,
            dependency_density=0.02,
        ),
        expected_dynamic="neutral",
    ),
    GPUWorkload(
        name="PENNANT",
        suite="pennant",
        input_size="noh",
        kernel=GPUKernel(
            name="PENNANT",
            num_workgroups=1024,
            wavefronts_per_workgroup=2,
            instructions_per_wavefront=2000,
            vregs_per_wavefront=64,
            memory_intensity=0.30,
            dependency_density=0.04127,
        ),
        expected_dynamic="better",
    ),
]

GPU_WORKLOADS: Dict[str, GPUWorkload] = {
    workload.name: workload for workload in _WORKLOAD_LIST
}

WORKLOADS_BY_SUITE: Dict[str, List[str]] = {}
for _workload in _WORKLOAD_LIST:
    WORKLOADS_BY_SUITE.setdefault(_workload.suite, []).append(
        _workload.name
    )


def get_gpu_workload(name: str) -> GPUWorkload:
    if name not in GPU_WORKLOADS:
        raise NotFoundError(
            f"unknown GPU workload {name!r}; known: {sorted(GPU_WORKLOADS)}"
        )
    return GPU_WORKLOADS[name]
