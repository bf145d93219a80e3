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

from repro.analysis import Series, bar_chart, figs6_7
from repro.art import ArtifactDB, parsec_study


def main() -> None:
    experiment = parsec_study(ArtifactDB())
    print(f"launching {experiment.size()} gem5 runs ...")
    experiment.launch(substrate="processes", workers=8)
    claims = figs6_7(experiment.records())

    # ------------------------------------------------------------- Fig 6
    print("\nFig 6: execution-time difference, Ubuntu 18.04 - 20.04")
    for cores, difference in claims["fig6"]["difference"].items():
        print(f"\n--- {cores} core(s) ---")
        print(bar_chart([Series(f"{cores} cores", difference)], unit="s"))

    # ------------------------------------------------------------- Fig 7
    print("\nFig 7: 1 -> 8 core speedup per OS")
    fig7 = claims["fig7"]
    for stack, speedup in fig7["speedup"].items():
        print(f"\n--- {stack} (mean speedup {fig7['mean'][stack]:.2f}x) ---")
        print(bar_chart([Series(stack, speedup)], unit="x"))


if __name__ == "__main__":
    main()
