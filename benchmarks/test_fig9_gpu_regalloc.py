"""Regenerates **Fig 9**: GPU execution time (shader ticks) under the
simple and dynamic register allocators, normalized to simple.

Paper's findings, asserted here:

- surprisingly, the *simple* allocator wins on average (~8%);
- FAMutex is the worst case for dynamic (61% worse) and fwd_pool is 22%
  worse — the HeteroSync suite and the pool layers suffer most;
- small kernels (2dshfl, dynamic_shared, ...) and limited-work apps
  (HACC, LULESH) are indifferent;
- inline_asm, MatrixTranspose, PENNANT, stream and some DNNMark layers
  improve significantly under dynamic allocation.
"""

import pytest

from repro.analysis import Series, bar_chart, pivot
from repro.gpu import GPU_WORKLOADS, GPUConfig, GPUDevice, \
    WORKLOADS_BY_SUITE


@pytest.fixture(scope="module")
def ticks(paper):
    """``{workload: {allocator: shader ticks}}``."""
    return pivot(
        paper["gpu"], "workload", "register_allocator", "shader_ticks"
    )


def relative_time(ticks, name):
    """T_dynamic / T_simple (1.61 == dynamic 61% worse)."""
    return ticks[name]["dynamic"] / ticks[name]["simple"]


def test_fig9_covers_all_29_workloads(ticks):
    assert len(ticks) == 29


def test_fig9_simple_wins_on_average(ticks):
    mean = sum(
        relative_time(ticks, name) for name in ticks
    ) / len(ticks)
    assert 1.03 <= mean <= 1.12, (
        f"mean dynamic/simple = {mean:.3f}; paper reports simple better "
        "by ~8% on average"
    )


def test_fig9_famutex_61_percent_worse(ticks):
    ratio = relative_time(ticks, "FAMutex")
    assert ratio == pytest.approx(1.61, abs=0.08)
    assert max(ticks, key=lambda n: relative_time(ticks, n)) == (
        "FAMutex"
    )


def test_fig9_fwd_pool_22_percent_worse(ticks):
    assert relative_time(ticks, "fwd_pool") == pytest.approx(
        1.22, abs=0.05
    )


def test_fig9_heterosync_suffers(ticks):
    for name in WORKLOADS_BY_SUITE["HeteroSync"]:
        assert relative_time(ticks, name) > 1.03, name


def test_fig9_small_kernels_indifferent(ticks):
    for name in ("2dshfl", "dynamic_shared", "shfl", "unroll"):
        assert relative_time(ticks, name) == pytest.approx(
            1.0, abs=0.01
        ), name


def test_fig9_limited_work_apps_indifferent(ticks):
    for name in ("HACC", "LULESH"):
        assert relative_time(ticks, name) == pytest.approx(
            1.0, abs=0.05
        ), name


def test_fig9_dynamic_helps_parallel_memory_bound_apps(ticks):
    for name in (
        "inline_asm", "MatrixTranspose", "PENNANT", "stream",
        "fwd_softmax", "bwd_softmax",
    ):
        assert relative_time(ticks, name) < 0.95, name


def test_fig9_expected_categories_all_match(ticks):
    for name, workload in GPU_WORKLOADS.items():
        ratio = relative_time(ticks, name)
        if workload.expected_dynamic == "better":
            assert ratio < 0.97, (name, ratio)
        elif workload.expected_dynamic == "worse":
            assert ratio > 1.03, (name, ratio)
        else:
            assert 0.95 <= ratio <= 1.05, (name, ratio)


def test_fig9_render(ticks, capsys, benchmark):
    def render():
        order = sorted(
            ticks, key=lambda n: GPU_WORKLOADS[n].suite
        )
        speedup = Series(
            "dynamic-vs-simple",
            {name: 1.0 / relative_time(ticks, name)
             for name in order},
        )
        return bar_chart([speedup], unit="x")

    chart = benchmark(render)
    with capsys.disabled():
        print("\nFig 9: dynamic allocator speedup normalized to simple "
              "(>1 = dynamic wins)")
        print(chart)


def test_bench_gpu_kernel_execution(benchmark):
    device = GPUDevice(GPUConfig())
    kernel = GPU_WORKLOADS["MatrixTranspose"].kernel
    result = benchmark(device.execute, kernel, "dynamic")
    assert result.shader_ticks > 0


def test_bench_full_fig9_sweep(benchmark):
    device = GPUDevice(GPUConfig())

    def sweep():
        return [
            device.execute(workload.kernel, allocator).shader_ticks
            for workload in GPU_WORKLOADS.values()
            for allocator in ("simple", "dynamic")
        ]

    ticks = benchmark(sweep)
    assert len(ticks) == 58
