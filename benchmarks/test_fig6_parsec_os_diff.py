"""Regenerates **Fig 6**: absolute execution-time difference of each
PARSEC application on Ubuntu 18.04 vs 20.04, at 1, 2 and 8 cores.

The paper's shape is gated in ``examples/paper-full.yaml``'s ``fig6-7``
stage: applications *typically* take longer on Ubuntu 18.04 (at least
8 of 10 at every core count), and the mean difference shrinks as more
cores are used.  This file renders the figure and keeps the one claim
a gate cannot state.
"""

from repro.analysis import Series, bar_chart
from repro.art import ArtifactDB, Gem5Run, register_disk_image, \
    register_gem5_binary, register_kernel_binary, register_repo, run_job
from repro.guest import get_distro
from repro.resources import build_resource
from repro.sim import Gem5Build


def test_fig6_compute_bound_apps_can_invert(paper):
    """swaptions (tiny working set, compute bound) pays GCC 9.3's larger
    instruction count without the memory win — the 'typically' caveat.
    It stays an assertion: it compares two plotted values, and a gate
    compares one value with a constant."""
    difference = paper["fig6-7"]["fig6"]["difference"]["1"]
    assert difference["swaptions"] < difference["ferret"]


def test_fig6_render(paper, capsys, benchmark):
    def render():
        blocks = []
        for cores, difference in paper["fig6-7"]["fig6"]["difference"].items():
            blocks.append(f"--- {cores} core(s) ---")
            blocks.append(
                bar_chart([Series(f"{cores}c", difference)], unit="s")
            )
        return "\n".join(blocks)

    chart = benchmark(render)
    with capsys.disabled():
        print("\nFig 6: execution time difference, 18.04 - 20.04 "
              "(positive = 18.04 slower)")
        print(chart)


def test_bench_single_parsec_run(benchmark):
    """Times one full-system PARSEC data point through gem5art."""
    db = ArtifactDB()
    repo = register_repo(db, "gem5")
    gem5 = register_gem5_binary(db, Gem5Build(), inputs=[repo])
    kernel = register_kernel_binary(db, get_distro("18.04").kernel)
    disk = register_disk_image(
        db, build_resource("parsec", distro="ubuntu-18.04").image
    )

    def one_run():
        run = Gem5Run.create_fs_run(
            db, gem5, repo, repo, kernel, disk,
            cpu_type="timing", num_cpus=1, benchmark="blackscholes",
        )
        return run_job(run)

    summary = benchmark(one_run)
    assert summary["success"]
