"""Plain-text and CSV reporting for the experiment harness."""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    *,
    title: Optional[str] = None,
    float_format: str = "{:.1f}",
) -> str:
    """Render rows as a fixed-width text table.

    Args:
        rows: the data; missing keys render as empty cells.
        columns: column order.
        title: optional title line printed above the table.
        float_format: format applied to float values.
    """
    def render(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return float_format.format(value)
        return "" if value is None else str(value)

    rendered = [[render(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(r[index]) for r in rendered)) if rendered else len(column)
        for index, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def to_csv(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Render rows as CSV text with a header line."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({column: row.get(column, "") for column in columns})
    return buffer.getvalue()
