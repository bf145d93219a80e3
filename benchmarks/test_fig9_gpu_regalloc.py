"""Regenerates **Fig 9**: GPU execution time (shader ticks) under the
simple and dynamic register allocators, normalized to simple.

The paper's findings are gated, workload by workload, in
``examples/paper-full.yaml``'s ``fig9`` stage: the *simple* allocator
wins on average (~8%); FAMutex is the worst case for dynamic (61%
worse) and fwd_pool is 22% worse, with the rest of HeteroSync
suffering too; small kernels and limited-work apps (HACC, LULESH) are
indifferent; inline_asm, MatrixTranspose, PENNANT, stream and some
DNNMark layers improve under dynamic allocation.  This file renders the
figure and times the GPU model.
"""

from repro.analysis import Series, bar_chart
from repro.gpu import GPU_WORKLOADS, GPUConfig, GPUDevice


def test_fig9_render(paper, capsys, benchmark):
    speedup = paper["fig9"]["fig9"]["speedup"]

    def render():
        order = sorted(speedup, key=lambda n: GPU_WORKLOADS[n].suite)
        return bar_chart(
            [Series("dynamic-vs-simple", {n: speedup[n] for n in order})],
            unit="x",
        )

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
