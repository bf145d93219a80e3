"""ASCII chart rendering — the offline Matplotlib.

Two chart forms cover the paper's figures: horizontal bar charts (Figs 6,
7 and 9 are grouped bars) and the status grid (Fig 8 is a pass/fail matrix
over configuration cross products).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.series import Series
from repro.common.errors import ValidationError

#: Columns the longest bar of a chart spans.
BAR_WIDTH = 40

#: Glyphs for status grids, chosen to be unambiguous in monospace.
STATUS_GLYPHS = {
    "ok": "P",  # pass
    "unsupported": "-",
    "kernel_panic": "K",
    "gem5_segfault": "S",
    "deadlock": "D",
    "timeout": "T",
    "failed": "F",  # the run itself failed: no simulation outcome
}


def bar_chart(
    series_list: Sequence[Series],
    title: str = None,
    unit: str = "",
) -> str:
    """Render one or more series as grouped horizontal bars.

    Negative values draw to the left of the axis, so difference charts
    (Fig 6) read naturally.
    """
    if not series_list:
        raise ValidationError("bar_chart needs at least one series")
    labels = series_list[0].labels()
    for series in series_list[1:]:
        if series.labels() != labels:
            raise ValidationError("all series must share labels")
    peak = max(
        (abs(value) for s in series_list for value in s.values.values()),
        default=0.0,
    )
    scale = (BAR_WIDTH / peak) if peak > 0 else 0.0
    label_width = max((len(label) for label in labels), default=0)
    name_width = max(len(s.name) for s in series_list)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label in labels:
        for series in series_list:
            value = series[label]
            bar_length = int(round(abs(value) * scale))
            bar = "#" * bar_length if value >= 0 else "=" * bar_length
            sign = "" if value >= 0 else "-"
            lines.append(
                f"{label:<{label_width}} | {series.name:<{name_width}} | "
                f"{sign}{bar} {value:.4g}{unit}"
            )
    return "\n".join(lines)


def status_grid(
    cells: Dict[tuple, str],
    row_labels: Sequence,
    column_labels: Sequence,
    title: str = None,
) -> str:
    """Render a (row, column) → status mapping as a compact grid.

    ``cells`` must contain an entry for every (row, column) pair.  The
    legend of glyph meanings is appended automatically.
    """
    row_width = max((len(str(r)) for r in row_labels), default=0)
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " " * row_width + " | " + " ".join(
        f"{str(c):>2}" for c in column_labels
    )
    lines.append(header)
    lines.append("-" * len(header))
    used = set()
    for row in row_labels:
        rendered = []
        for column in column_labels:
            if (row, column) not in cells:
                raise ValidationError(
                    f"status_grid missing cell ({row!r}, {column!r})"
                )
            status = cells[(row, column)]
            if status not in STATUS_GLYPHS:
                raise ValidationError(f"no glyph for status {status!r}")
            used.add(status)
            rendered.append(f"{STATUS_GLYPHS[status]:>2}")
        lines.append(f"{str(row):<{row_width}} | " + " ".join(rendered))
    legend = ", ".join(
        f"{STATUS_GLYPHS[status]}={status}" for status in sorted(used)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
