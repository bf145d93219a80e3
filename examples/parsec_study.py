#!/usr/bin/env python3
"""Use-case 1: PARSEC across Ubuntu LTS releases (the paper's Fig 5
launch script, regenerating Figs 6 and 7).

Runs the full 60-point cross product — {Ubuntu 18.04, 20.04} x 10 working
PARSEC applications x {1, 2, 8} CPUs on a TimingSimpleCPU, built by
:func:`repro.art.studies.parsec_study` — through gem5art on worker
processes, then renders both figures as text charts from the run
results.

Run with:  python examples/parsec_study.py
"""

from repro.analysis import (
    Series,
    bar_chart,
    difference_series,
    speedup_series,
)
from repro.art import ArtifactDB, parsec_study
from repro.art.studies import PARSEC_CPU_COUNTS, PARSEC_OSES


def main() -> None:
    experiment = parsec_study(ArtifactDB())
    print(f"launching {experiment.size()} gem5 runs ...")
    experiment.launch(substrate="processes", workers=8)

    # {os: {app: {cpus: workload seconds}}}
    tables = {os_key: {} for os_key in PARSEC_OSES}
    for record in experiment.records():
        tables[record["stack"]].setdefault(record["benchmark"], {})[
            record["num_cpus"]
        ] = record["workload_seconds"]

    def series(name, os_key, cpus):
        table = tables[os_key]
        return Series(name, {a: table[a][cpus] for a in sorted(table)})

    # ------------------------------------------------------------- Fig 6
    print("\nFig 6: execution-time difference, Ubuntu 18.04 - 20.04")
    for cpus in PARSEC_CPU_COUNTS:
        diff = difference_series(
            f"{cpus} cores",
            series("18.04", "ubuntu-18.04", cpus),
            series("20.04", "ubuntu-20.04", cpus),
        )
        print(f"\n--- {cpus} core(s) ---")
        print(bar_chart([diff], unit="s"))

    # ------------------------------------------------------------- Fig 7
    print("\nFig 7: 1 -> 8 core speedup per OS")
    for os_key in PARSEC_OSES:
        speedup = speedup_series(
            os_key, series("1", os_key, 1), series("8", os_key, 8)
        )
        print(f"\n--- {os_key} (mean speedup "
              f"{speedup.mean():.2f}x) ---")
        print(bar_chart([speedup], unit="x"))


if __name__ == "__main__":
    main()
