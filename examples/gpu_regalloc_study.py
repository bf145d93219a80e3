#!/usr/bin/env python3
"""Use-case 3: GPU register-allocator study (regenerating Fig 9).

:func:`repro.art.studies.gpu_regalloc_study` builds the GCN-docker
environment from gem5-resources, registers a GCN3_X86 gem5 build and
sweeps every workload it can build under both register allocators; this
script runs them through gem5art and renders the normalized speedup
chart.

Run with:  python examples/gpu_regalloc_study.py
"""

import collections

from repro.analysis import Series, bar_chart, normalize_to
from repro.art import ArtifactDB, gpu_regalloc_study
from repro.gpu import GPU_WORKLOADS, GPUConfig


def main() -> None:
    experiment = gpu_regalloc_study(ArtifactDB())
    # The paper's Table III, which every run's ``gpu_config`` records.
    print(f"GPU config: {GPUConfig().describe()}\n")
    print(f"launching {experiment.size()} GPU runs ...")
    experiment.launch(substrate="processes", workers=8)

    ticks = collections.defaultdict(dict)
    for record in experiment.records():
        ticks[record["register_allocator"]][record["workload"]] = (
            record["shader_ticks"]
        )
    order = sorted(ticks["simple"], key=lambda n: GPU_WORKLOADS[n].suite)
    simple = Series("simple", {n: ticks["simple"][n] for n in order})
    dynamic = Series("dynamic", {n: ticks["dynamic"][n] for n in order})

    # Fig 9: speedup of each allocator normalized to simple.
    speedup = normalize_to(simple, dynamic)
    speedup.name = "dynamic-vs-simple"
    print(bar_chart(
        [speedup],
        title="Fig 9: dynamic allocator speedup (normalized to simple; "
        ">1 means dynamic wins)",
        unit="x",
    ))
    mean_relative_time = sum(
        dynamic[n] / simple[n] for n in order
    ) / len(order)
    print(f"\nmean relative execution time (dynamic/simple): "
          f"{mean_relative_time:.3f} "
          "(paper: simple better by ~8% on average)")
    worst = max(order, key=lambda n: dynamic[n] / simple[n])
    print(f"worst regression: {worst} "
          f"({dynamic[worst] / simple[worst]:.2f}x slower under dynamic; "
          "paper: FAMutex, 61% worse)")


if __name__ == "__main__":
    main()
