"""Tests for the analysis layer: queries, series math, chart rendering."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    Series,
    bar_chart,
    difference_series,
    group_by,
    normalize_to,
    pivot,
    speedup_series,
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


# ------------------------------------------------------------------ series


def test_series_basics():
    series = Series("times", {"a": 2.0, "b": 4.0})
    assert series.labels() == ["a", "b"]
    assert series.mean() == 3.0
    assert series["a"] == 2.0
    assert len(series) == 2


def test_series_empty_mean():
    with pytest.raises(ValidationError):
        Series("empty").mean()


def test_difference_series():
    old = Series("18.04", {"a": 5.0, "b": 2.0})
    new = Series("20.04", {"a": 4.0, "b": 2.5})
    diff = difference_series("diff", old, new)
    assert diff["a"] == 1.0
    assert diff["b"] == -0.5


def test_speedup_and_normalize():
    one_core = Series("1", {"a": 8.0})
    eight_core = Series("8", {"a": 2.0})
    speedup = speedup_series("sp", one_core, eight_core)
    assert speedup["a"] == 4.0
    norm = normalize_to(eight_core, one_core)
    assert norm["a"] == 0.25


def test_speedup_zero_denominator():
    with pytest.raises(ValidationError):
        speedup_series("sp", Series("a", {"x": 1.0}), Series("b", {"x": 0}))


def test_mismatched_labels_rejected():
    with pytest.raises(ValidationError):
        difference_series(
            "d", Series("a", {"x": 1.0}), Series("b", {"y": 1.0})
        )


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=0.1, max_value=100, allow_nan=False),
        min_size=1,
    )
)
def test_property_speedup_of_self_is_one(values):
    series = Series("s", values)
    speedup = speedup_series("sp", series, series)
    for label in series.labels():
        assert speedup[label] == pytest.approx(1.0)


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
