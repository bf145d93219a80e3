"""Tests for the analysis layer: queries, figure claims, chart rendering."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    Series,
    bar_chart,
    fig9,
    figs6_7,
    group_by,
    pivot,
    status_grid,
)
from repro.common.errors import ValidationError


#: A sweep's records, as :meth:`repro.art.Experiment.records` flattens them.
RECORDS = [
    {"benchmark": app, "num_cpus": cpus, "workload_seconds": seconds}
    for app, cpus, seconds in [
        ("ferret", 1, 4.0),
        ("ferret", 8, 1.0),
        ("vips", 1, 3.0),
        ("vips", 8, 0.9),
    ]
]


def test_group_by():
    groups = group_by(RECORDS, ["benchmark"])
    assert set(groups) == {("ferret",), ("vips",)}
    assert len(groups[("ferret",)]) == 2


def test_pivot_mean():
    table = pivot(
        RECORDS,
        row_key="benchmark",
        column_key="num_cpus",
        value_key="workload_seconds",
    )
    assert table["ferret"][1] == 4.0
    assert table["vips"][8] == 0.9


# ------------------------------------------------------------------ claims


def parsec_records(seconds):
    """PARSEC study records from ``{stack: {app: (t1, t2, t8)}}``."""
    return [
        {"stack": stack, "benchmark": app, "num_cpus": cores,
         "workload_seconds": time}
        for stack, apps in seconds.items()
        for app, times in apps.items()
        for cores, time in zip((1, 2, 8), times)
    ]


def gpu_records(ticks):
    """GPU study records from ``{workload: (simple, dynamic)}``."""
    return [
        {"workload": name, "register_allocator": allocator,
         "shader_ticks": value}
        for name, pair in ticks.items()
        for allocator, value in zip(("simple", "dynamic"), pair)
    ]


def test_series_basics():
    series = Series("times", {"a": 2.0, "b": 4.0})
    assert series.labels() == ["a", "b"]
    assert series["a"] == 2.0


def test_difference_series():
    """Fig 6: 18.04 - 20.04 per app and core count, its mean, the apps
    slower on 18.04, and the core counts by mean."""
    fig6 = figs6_7(parsec_records({
        "ubuntu-18.04": {"a": (5.0, 3.0, 2.0), "b": (2.0, 1.5, 1.0)},
        "ubuntu-20.04": {"a": (4.0, 2.5, 1.0), "b": (2.5, 1.0, 0.5)},
    }))["fig6"]
    assert fig6["difference"]["1"] == {"a": 1.0, "b": -0.5}
    assert fig6["mean"] == {"1": 0.25, "2": 0.5, "8": 0.75}
    assert fig6["slower"] == {"1": 1, "2": 2, "8": 2}
    assert fig6["cores_by_mean"] == [8, 2, 1]


def test_speedup_and_normalize():
    """Fig 7's 1 -> 8-core speedups and 20.04/18.04 gains; Fig 9's
    normalization to the simple allocator."""
    fig7 = figs6_7(parsec_records({
        "ubuntu-18.04": {
            "a": (8.0, 5.0, 2.0), "b": (6.0, 4.0, 3.0), "c": (4.0, 3.0, 2.0)
        },
        "ubuntu-20.04": {
            "a": (8.0, 5.0, 1.0), "b": (6.0, 4.0, 2.0), "c": (4.0, 3.0, 2.0)
        },
    }))["fig7"]
    assert fig7["speedup"]["ubuntu-20.04"] == {"a": 8.0, "b": 3.0, "c": 2.0}
    assert fig7["gain"] == {"a": 2.0, "b": 1.5, "c": 1.0}
    assert fig7["higher_mean"] == "ubuntu-20.04"
    assert fig7["top_gains"] == ["a", "b"]
    assert (fig7["least_speedup"], fig7["most_speedup"]) == (2.0, 8.0)
    assert (fig7["least_gain"], fig7["most_gain"]) == (1.0, 2.0)
    claims = fig9(gpu_records({"x": (2.0, 8.0), "y": (4.0, 2.0)}))["fig9"]
    assert claims["relative_time"] == {"x": 4.0, "y": 0.5}
    assert claims["speedup"] == {"x": 0.25, "y": 2.0}
    assert (claims["mean"], claims["worst"]) == (2.25, "x")


def test_speedup_zero_denominator():
    """A zero-time run has no normalized time: the claims stage fails
    rather than plot an infinity."""
    with pytest.raises(ZeroDivisionError):
        fig9(gpu_records({"x": (0.0, 1.0)}))


def test_mismatched_labels_rejected():
    """Figs 6 and 7 compare each app across releases: an app only one
    release ran is an error, not a smaller figure."""
    with pytest.raises(KeyError):
        figs6_7(parsec_records({
            "ubuntu-18.04": {"a": (1.0, 1.0, 1.0)},
            "ubuntu-20.04": {"b": (1.0, 1.0, 1.0)},
        }))


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=0.1, max_value=100, allow_nan=False),
        min_size=1,
    )
)
def test_property_speedup_of_self_is_one(values):
    """A release, or an allocator, against itself: no app is slower and
    every gain and normalized time is 1."""
    same = {app: (time, time, time / 4) for app, time in values.items()}
    claims = figs6_7(
        parsec_records({"ubuntu-18.04": same, "ubuntu-20.04": same})
    )
    assert set(claims["fig6"]["slower"].values()) == {0}
    for gain in claims["fig7"]["gain"].values():
        assert gain == pytest.approx(1.0)
    ticks = {name: (time, time) for name, time in values.items()}
    for relative in fig9(gpu_records(ticks))["fig9"]["relative_time"].values():
        assert relative == pytest.approx(1.0)


# ------------------------------------------------------------------ charts


def test_bar_chart_renders_all_labels():
    chart = bar_chart(
        [Series("18.04", {"ferret": 4.9, "vips": 3.2})],
        title="Execution time",
        unit="s",
    )
    assert "Execution time" in chart
    assert "ferret" in chart and "vips" in chart
    assert "#" in chart


def test_bar_chart_negative_values():
    chart = bar_chart([Series("diff", {"swaptions": -0.5, "vips": 1.0})])
    assert "=" in chart  # negative bars use a distinct glyph
    assert "-0.5" in chart


def test_bar_chart_grouped_series_alignment():
    chart = bar_chart(
        [
            Series("one", {"x": 1.0}),
            Series("two", {"x": 2.0}),
        ]
    )
    assert chart.count("x ") == 2


def test_bar_chart_requires_matching_labels():
    with pytest.raises(ValidationError):
        bar_chart([Series("a", {"x": 1}), Series("b", {"y": 1})])
    with pytest.raises(ValidationError):
        bar_chart([])


def test_bar_chart_all_zero():
    chart = bar_chart([Series("z", {"x": 0.0})])
    assert "0" in chart


def test_status_grid():
    cells = {
        ("4.4", 1): "ok",
        ("4.4", 2): "kernel_panic",
        ("5.4", 1): "timeout",
        ("5.4", 2): "unsupported",
    }
    grid = status_grid(cells, ["4.4", "5.4"], [1, 2], title="boot")
    assert "boot" in grid
    assert " P" in grid and " K" in grid and " T" in grid and " -" in grid
    assert "legend:" in grid
    assert "K=kernel_panic" in grid


def test_status_grid_missing_cell():
    with pytest.raises(ValidationError):
        status_grid({("a", 1): "ok"}, ["a"], [1, 2])


def test_status_grid_unknown_status():
    with pytest.raises(ValidationError):
        status_grid({("a", 1): "exploded"}, ["a"], [1])
