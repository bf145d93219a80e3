"""Tests for the GPU device timing model and the Table IV registry."""

import pytest

from repro.gpu import (
    GPU_WORKLOADS,
    GPUConfig,
    GPUDevice,
    GPUKernel,
    WORKLOADS_BY_SUITE,
    get_gpu_workload,
)
from repro.common.errors import NotFoundError


@pytest.fixture(scope="module")
def device():
    return GPUDevice()


@pytest.fixture(scope="module")
def ratios(device):
    """T_dynamic / T_simple for every Table IV workload."""
    out = {}
    for name, workload in GPU_WORKLOADS.items():
        simple = device.execute(workload.kernel, "simple").shader_ticks
        dynamic = device.execute(workload.kernel, "dynamic").shader_ticks
        out[name] = dynamic / simple
    return out


def test_execute_returns_timings(device):
    kernel = GPUKernel(name="k", num_workgroups=64)
    result = device.execute(kernel, "simple")
    assert result.shader_ticks > 0
    assert result.shader_ticks == pytest.approx(
        result.compute_ticks + result.sync_ticks + result.dispatch_ticks
    )
    assert result.occupancy_per_simd == 1
    assert result.stats["total_wavefronts"] == 64
    assert "k" in result.describe()


def test_dynamic_raises_occupancy(device):
    kernel = GPUKernel(
        name="k", num_workgroups=640, vregs_per_wavefront=64
    )
    simple = device.execute(kernel, "simple")
    dynamic = device.execute(kernel, "dynamic")
    assert simple.occupancy_per_simd == 1
    assert dynamic.occupancy_per_simd == 10


def test_occupancy_limited_by_available_waves(device):
    kernel = GPUKernel(name="k", num_workgroups=16)  # 1 wave per pipe
    dynamic = device.execute(kernel, "dynamic")
    assert dynamic.occupancy_per_simd == 1


def test_execution_deterministic(device):
    kernel = GPUKernel(name="k", num_workgroups=64)
    assert (
        device.execute(kernel, "dynamic").shader_ticks
        == device.execute(kernel, "dynamic").shader_ticks
    )


def test_memory_bound_kernel_benefits_from_occupancy(device):
    kernel = GPUKernel(
        name="membound",
        num_workgroups=1024,
        memory_intensity=0.4,
        dependency_density=0.3,
        vregs_per_wavefront=48,
    )
    simple = device.execute(kernel, "simple").shader_ticks
    dynamic = device.execute(kernel, "dynamic").shader_ticks
    assert dynamic < simple


def test_compute_bound_kernel_hurt_by_dependence_tracking(device):
    kernel = GPUKernel(
        name="computebound",
        num_workgroups=1024,
        memory_intensity=0.05,
        dependency_density=0.01,
        vregs_per_wavefront=48,
    )
    simple = device.execute(kernel, "simple").shader_ticks
    dynamic = device.execute(kernel, "dynamic").shader_ticks
    assert dynamic > simple


def test_sync_contention_worse_with_occupancy(device):
    base = dict(
        num_workgroups=320,
        sync_ops_per_wavefront=20.0,
        contention_coefficient=0.2,
        memory_intensity=0.05,
        dependency_density=0.01,
        vregs_per_wavefront=48,
    )
    kernel = GPUKernel(name="locky", **base)
    simple = device.execute(kernel, "simple")
    dynamic = device.execute(kernel, "dynamic")
    assert dynamic.sync_ticks > simple.sync_ticks


def test_per_cu_sync_cheaper_than_global(device):
    common = dict(
        num_workgroups=320,
        sync_ops_per_wavefront=20.0,
        contention_coefficient=0.2,
        vregs_per_wavefront=48,
    )
    global_lock = GPUKernel(name="g", per_cu_sync=False, **common)
    per_cu = GPUKernel(name="u", per_cu_sync=True, **common)
    assert (
        device.execute(per_cu, "dynamic").sync_ticks
        < device.execute(global_lock, "dynamic").sync_ticks
    )


def test_no_dependence_penalty_makes_dynamic_strictly_better():
    """Ablation: with perfect dependence tracking (penalty 0), dynamic
    can only help — confirming the penalty is what flips Fig 9."""
    device = GPUDevice(GPUConfig(dependence_tracking_penalty=0.0))
    for name, workload in GPU_WORKLOADS.items():
        if workload.kernel.sync_ops_per_wavefront > 0:
            continue  # sync contention is a separate mechanism
        simple = device.execute(workload.kernel, "simple").shader_ticks
        dynamic = device.execute(workload.kernel, "dynamic").shader_ticks
        assert dynamic <= simple * 1.0001, name


# ---------------------------------------------------------------- registry


def test_registry_has_29_workloads():
    assert len(GPU_WORKLOADS) == 29


def test_registry_suites_match_table4():
    assert len(WORKLOADS_BY_SUITE["hip-samples"]) == 8
    assert len(WORKLOADS_BY_SUITE["HeteroSync"]) == 8
    assert len(WORKLOADS_BY_SUITE["DNNMark"]) == 10
    assert WORKLOADS_BY_SUITE["halo-finder"] == ["HACC"]
    assert WORKLOADS_BY_SUITE["lulesh"] == ["LULESH"]
    assert WORKLOADS_BY_SUITE["pennant"] == ["PENNANT"]


def test_registry_input_sizes_quoted():
    assert get_gpu_workload("MatrixTranspose").input_size == "1024x1024"
    assert get_gpu_workload("PENNANT").input_size == "noh"
    assert "8 WGs/CU" in get_gpu_workload("FAMutex").input_size
    assert get_gpu_workload("fwd_pool").input_size == (
        "NCHW = 100, 3, 256, 256"
    )


def test_registry_unknown():
    with pytest.raises(NotFoundError):
        get_gpu_workload("doom3")


# ------------------------------------------------------- Fig 9 shape tests


def test_fig9_every_workload_matches_expected_category(ratios):
    for name, workload in GPU_WORKLOADS.items():
        ratio = ratios[name]
        if workload.expected_dynamic == "better":
            assert ratio < 0.97, (name, ratio)
        elif workload.expected_dynamic == "worse":
            assert ratio > 1.03, (name, ratio)
        else:
            assert 0.95 <= ratio <= 1.05, (name, ratio)


def test_fig9_simple_wins_on_average(ratios):
    mean = sum(ratios.values()) / len(ratios)
    assert 1.03 <= mean <= 1.12  # paper: simple better by ~8%


def test_fig9_famutex_is_worst_at_about_61_percent(ratios):
    assert max(ratios, key=ratios.get) == "FAMutex"
    assert ratios["FAMutex"] == pytest.approx(1.61, abs=0.08)


def test_fig9_fwd_pool_about_22_percent_worse(ratios):
    assert ratios["fwd_pool"] == pytest.approx(1.22, abs=0.05)


def test_fig9_small_kernels_neutral(ratios):
    for name in ("2dshfl", "dynamic_shared", "shfl", "unroll"):
        assert ratios[name] == pytest.approx(1.0, abs=0.01), name


def test_fig9_limited_work_apps_neutral(ratios):
    for name in ("HACC", "LULESH"):
        assert ratios[name] == pytest.approx(1.0, abs=0.05), name


def test_fig9_improved_group(ratios):
    for name in (
        "inline_asm",
        "MatrixTranspose",
        "PENNANT",
        "stream",
        "fwd_softmax",
        "bwd_softmax",
    ):
        assert ratios[name] < 0.95, name


def test_fig9_all_heterosync_suffer(ratios):
    for name in WORKLOADS_BY_SUITE["HeteroSync"]:
        assert ratios[name] > 1.03, name
