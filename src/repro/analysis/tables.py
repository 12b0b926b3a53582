"""Plain-text and markdown tables for the self-check and the
EXPERIMENTS.md generator."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


class Table:
    """A simple aligned text table."""

    def __init__(self, headers: Sequence[str], title: Optional[str] = None):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * max(len(self.title), sum(widths) + 2 * len(widths)))
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(
            "  ".join(c.ljust(w) for c, w in zip(row, widths))
            for row in self.rows
        )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class MarkdownTable:
    """A GitHub pipe table with the same cell formatting as
    :class:`Table`.

    The column set and order are fixed by ``headers`` at construction
    and every row is arity-checked against them, so a rendered table's
    column ordering is stable by construction — the property the
    EXPERIMENTS.md generator (and its round-trip tests) rely on.
    """

    def __init__(self, headers: Sequence[str]):
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        lines = ["| " + " | ".join(self.headers) + " |"]
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        lines.extend("| " + " | ".join(row) + " |" for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)


#: Public alias: the one scalar-to-text formatting used by every table
#: (and by prose interpolation in the EXPERIMENTS.md renderers).
fmt_cell = _fmt


def comparison_table(
    title: str,
    rows: Iterable[Sequence],
    value_label: str = "measured",
) -> Table:
    """A paper-vs-measured table.  Each row: (name, paper, measured);
    a ratio column is derived."""
    table = Table(["quantity", "paper", value_label, "ratio"], title=title)
    for name, paper, measured in rows:
        ratio = "-" if not paper else f"{measured / paper:.2f}x"
        table.add_row(name, paper, measured, ratio)
    return table
