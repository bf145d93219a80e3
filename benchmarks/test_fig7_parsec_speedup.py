"""Regenerates **Fig 7**: PARSEC 1→8-core speedup on both Ubuntu LTS
releases.

Paper's shape, asserted here:

- speedups are broadly consistent between the two OSes;
- Ubuntu 20.04 achieves a higher speedup on average;
- blackscholes and ferret benefit the most from the newer kernel.
"""

from repro.analysis import Series, bar_chart, speedup_series


def speedups(parsec_seconds, os_key):
    apps = sorted(parsec_seconds[os_key])
    one = Series("1c", {a: parsec_seconds[os_key][a][1] for a in apps})
    eight = Series("8c", {a: parsec_seconds[os_key][a][8] for a in apps})
    return speedup_series(os_key, one, eight)


def test_fig7_speedups_in_sane_range(parsec_seconds):
    for os_key in parsec_seconds:
        series = speedups(parsec_seconds, os_key)
        for app, value in series.values.items():
            assert 1.5 < value <= 8.0, (os_key, app, value)


def test_fig7_rates_consistent_between_oses(parsec_seconds):
    """The paper: 'the rate of speedup is relatively consistent between
    the two OSs' — per-app gaps stay small."""
    bionic = speedups(parsec_seconds, "ubuntu-18.04")
    focal = speedups(parsec_seconds, "ubuntu-20.04")
    for app in bionic.labels():
        ratio = focal[app] / bionic[app]
        assert 0.9 < ratio < 1.25, (app, ratio)


def test_fig7_2004_speedups_higher_on_average(parsec_seconds):
    bionic = speedups(parsec_seconds, "ubuntu-18.04")
    focal = speedups(parsec_seconds, "ubuntu-20.04")
    assert focal.mean() > bionic.mean()


def test_fig7_blackscholes_and_ferret_gain_most(parsec_seconds):
    bionic = speedups(parsec_seconds, "ubuntu-18.04")
    focal = speedups(parsec_seconds, "ubuntu-20.04")
    gains = {
        app: focal[app] / bionic[app] for app in bionic.labels()
    }
    top_two = sorted(gains, key=gains.get, reverse=True)[:2]
    assert set(top_two) == {"blackscholes", "ferret"}


def test_fig7_render(parsec_seconds, capsys, benchmark):
    def render():
        bionic = speedups(parsec_seconds, "ubuntu-18.04")
        focal = speedups(parsec_seconds, "ubuntu-20.04")
        chart = bar_chart([bionic, focal], unit="x")
        return (chart + f"\n\nmean: 18.04 {bionic.mean():.2f}x, "
                f"20.04 {focal.mean():.2f}x")

    chart = benchmark(render)
    with capsys.disabled():
        print("\nFig 7: PARSEC 1 -> 8 core speedup")
        print(chart)


def test_bench_speedup_computation(benchmark, parsec_seconds):
    result = benchmark(speedups, parsec_seconds, "ubuntu-20.04")
    assert len(result) == 10
