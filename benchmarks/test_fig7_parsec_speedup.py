"""Regenerates **Fig 7**: PARSEC 1→8-core speedup on both Ubuntu LTS
releases.

The paper's shape is gated in ``examples/paper-full.yaml``'s ``fig6-7``
stage: speedups are sane and broadly consistent between the two OSes,
Ubuntu 20.04 achieves a higher speedup on average, and blackscholes and
ferret benefit the most from the newer kernel.  This file renders the
figure and times its arithmetic.
"""

from repro.analysis import Series, bar_chart, figs6_7


def test_fig7_render(paper, capsys, benchmark):
    fig7 = paper["fig6-7"]["fig7"]

    def render():
        chart = bar_chart(
            [Series(stack, speedup) for stack, speedup
             in fig7["speedup"].items()],
            unit="x",
        )
        means = ", ".join(
            f"{stack.removeprefix('ubuntu-')} {mean:.2f}x"
            for stack, mean in fig7["mean"].items()
        )
        return f"{chart}\n\nmean: {means}"

    chart = benchmark(render)
    with capsys.disabled():
        print("\nFig 7: PARSEC 1 -> 8 core speedup")
        print(chart)


def test_bench_speedup_computation(benchmark, paper):
    result = benchmark(figs6_7, paper["parsec"])
    assert len(result["fig7"]["gain"]) == 10
