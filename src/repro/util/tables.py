"""Plain-text table rendering shared by the experiment drivers.

The experiment drivers reproduce the paper's tables (most prominently
Figure 11) as monospace text.  :class:`Table` does simple column sizing
with left-aligned first column and right-aligned numeric columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


def format_float(value: float) -> str:
    """Format *value* compactly in 3 significant digits: fixed-point when
    sensible, else scientific."""
    if value == 0:
        return "0"
    if abs(value) >= 1e6 or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:,.3g}"


def format_ratio(value: float) -> str:
    """Format a ratio such as an area improvement, e.g. ``11.3x``."""
    return f"{value:.1f}x"


@dataclass
class Table:
    """A simple monospace table builder.

    >>> t = Table(["n", "area"], title="demo")
    >>> t.add_row([8, 64])
    >>> print(t.render())  # doctest: +SKIP
    """

    headers: Sequence[str]
    title: str | None = None
    rows: list[list[str]] = field(default_factory=list, init=False)

    def add_row(self, cells: Iterable[object]) -> None:
        """Append a row; cells are stringified (floats via :func:`format_float`)."""
        row = []
        for cell in cells:
            if isinstance(cell, float):
                row.append(format_float(cell))
            else:
                row.append(str(cell))
        if len(row) != len(self.headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(self.headers)}")
        self.rows.append(row)

    def render(self) -> str:
        """Render the table (with title and rule lines) as a string."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_line(cells: Sequence[str]) -> str:
            parts = []
            for i, cell in enumerate(cells):
                if i == 0:
                    parts.append(cell.ljust(widths[i]))
                else:
                    parts.append(cell.rjust(widths[i]))
            return "  ".join(parts)

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        lines = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * len(self.title))
        lines.append(fmt_line(list(self.headers)))
        lines.append(rule)
        lines.extend(fmt_line(row) for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
