"""Markdown/plain-text table formatting for benchmark reports.

The Table 1 bench prints cells in the paper's own format:
``median (q25 - q75)``.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_median_iqr"]


def format_median_iqr(median: float, q25: float, q75: float, digits: int = 2) -> str:
    """Render a statistic the way Table 1 does: ``4.54 (4.52 - 4.55)``."""
    return f"{median:.{digits}f} ({q25:.{digits}f} - {q75:.{digits}f})"


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Monospace-aligned table with a markdown-style separator."""
    columns = [list(map(str, col)) for col in zip(header, *rows)]
    widths = [max(len(cell) for cell in col) for col in columns]
    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = [fmt_row(header)]
    lines.append("-+-".join("-" * w for w in widths))
    lines += [fmt_row(row) for row in rows]
    return "\n".join(lines)
