"""Plain-text table rendering.

matplotlib is not available in this offline environment, so the benchmark
harness reports every figure as aligned text tables and CSV series.  This
module is the single rendering path so all reports look alike.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


class TextTable:
    """An aligned, monospace table builder.

    >>> table = TextTable(["app", "time"])
    >>> table.add_row(["ferret", 1.25])
    >>> print(table.render())  # doctest: +NORMALIZE_WHITESPACE
    app    | time
    -------+-----
    ferret | 1.25
    """

    def __init__(self, headers: Sequence[str], title: str = None):
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, row: Iterable[Any]) -> None:
        cells = [self._format(cell) for cell in row]
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(cells)

    @staticmethod
    def _format(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(
            " | ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)
