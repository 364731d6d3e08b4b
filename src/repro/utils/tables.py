"""Rendering helpers: aligned text tables and CSV output for lists of dict rows.

Shared by the experiment reports, sweep summaries and fleet status; they
live in ``repro.utils`` because ``repro.parallel`` and ``repro.telemetry``
sit below ``repro.api`` in the import graph.
"""

from __future__ import annotations

import io
from typing import List, Mapping, Optional, Sequence


def _format_cell(value: object, float_format: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], *,
                 columns: Optional[Sequence[str]] = None,
                 float_format: str = ".2f",
                 title: Optional[str] = None) -> str:
    """Render a list of dict rows as an aligned, pipe-separated text table."""
    if not rows:
        return (title + "\n" if title else "") + "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        rendered.append([_format_cell(row.get(c), float_format) for c in columns])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(rendered[0]))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row_cells in rendered[1:]:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row_cells)))
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Mapping[str, object]], *,
                columns: Optional[Sequence[str]] = None) -> str:
    """Serialize dict rows as CSV text (no external dependencies)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    buffer = io.StringIO()
    buffer.write(",".join(str(c) for c in columns) + "\n")
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column)
            text = "" if value is None else str(value)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        buffer.write(",".join(cells) + "\n")
    return buffer.getvalue()


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference| (inf when the reference is zero)."""
    if reference == 0:
        return float("inf") if measured != 0 else 0.0
    return abs(measured - reference) / abs(reference)

