#!/usr/bin/env python3
"""Use-case 3: GPU register-allocator study (regenerating Fig 9).

:func:`repro.art.studies.gpu_regalloc_study` builds the GCN-docker
environment from gem5-resources, registers a GCN3_X86 gem5 build and
sweeps every workload it can build under both register allocators; this
script runs them through gem5art and renders the normalized speedup
chart.

Run with:  python examples/gpu_regalloc_study.py
"""

from repro.analysis import Series, bar_chart, fig9
from repro.art import ArtifactDB, gpu_regalloc_study
from repro.gpu import GPU_WORKLOADS, GPUConfig


def main() -> None:
    experiment = gpu_regalloc_study(ArtifactDB())
    # The paper's Table III, which every run's ``gpu_config`` records.
    print(f"GPU config: {GPUConfig().describe()}\n")
    print(f"launching {experiment.size()} GPU runs ...")
    experiment.launch(substrate="processes", workers=8)
    claims = fig9(experiment.records())["fig9"]

    # Fig 9: the dynamic allocator's speedup normalized to simple.
    speedup = claims["speedup"]
    order = sorted(speedup, key=lambda n: GPU_WORKLOADS[n].suite)
    print(bar_chart(
        [Series("dynamic-vs-simple", {n: speedup[n] for n in order})],
        title="Fig 9: dynamic allocator speedup (normalized to simple; "
        ">1 means dynamic wins)",
        unit="x",
    ))
    print(f"\nmean relative execution time (dynamic/simple): "
          f"{claims['mean']:.3f} "
          "(paper: simple better by ~8% on average)")
    worst = claims["worst"]
    print(f"worst regression: {worst} "
          f"({claims['relative_time'][worst]:.2f}x slower under dynamic; "
          "paper: FAMutex, 61% worse)")


if __name__ == "__main__":
    main()
