"""Plain-text and CSV reporting of experiment results.

Every figure/table runner returns a list of flat dictionaries ("rows");
:func:`format_table` renders them as an aligned text table (the same rows
and series the paper reports), and :func:`save_csv_rows` persists them for
plotting with external tools.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Sequence, Union


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[dict], title: str = "", columns: Sequence[str] = None) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    cells = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max((len(row[i]) for row in cells), default=0))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))) for row in cells)
    parts = [title, header, separator, body] if title else [header, separator, body]
    return "\n".join(part for part in parts if part)


def save_csv_rows(rows: Sequence[dict], path: Union[str, Path]) -> Path:
    """Write result rows to a CSV file and return the path."""
    rows = list(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path
