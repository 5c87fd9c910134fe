"""Minimal fixed-width table renderer for benchmark and report output."""

from __future__ import annotations

from typing import List, Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render rows as a fixed-width text table (the CLI's output format)."""
    cells = [[str(h) for h in headers]] + [[fmt_cell(c) for c in row] for row in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]

    def line(row: Sequence[str]) -> str:
        return " | ".join(text.ljust(width) for text, width in zip(row, widths))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(cells[0]))
    out.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        out.append(line(row))
    return "\n".join(out)


def fmt_cell(value: object) -> str:
    """One table cell.  Floats always carry an explicit sign — speed-up
    columns mix magnitudes, and dropping the ``+`` above 1000 made them
    inconsistent — with large values compacted to 4 significant digits."""
    if isinstance(value, float):
        # Branch on the rounded value so 999.996 doesn't render as
        # "+1000.00" while 1000.1 renders "+1000".
        if abs(round(value, 2)) < 1000:
            return f"{value:+.2f}"
        return f"{value:+.4g}"
    return str(value)
