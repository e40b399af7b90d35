"""Plain-text and CSV reporting of experiment results.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that formatting in one place so the CLI
output and the pytest-benchmark output stay consistent.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "ExperimentResult",
    "format_table",
    "format_bytes",
    "format_seconds",
    "format_throughput",
    "rows_to_csv",
]


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (KB/MB/GB with two decimals)."""
    value = float(nbytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024 or unit == "TB":
            return f"{value:.2f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.2f} TB"


def format_seconds(seconds: float) -> str:
    """Human-readable duration (ns/us/ms/s)."""
    if seconds == 0:
        return "0 s"
    if seconds < 1e-6:
        return f"{seconds * 1e9:.2f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def format_throughput(queries_per_minute: float) -> str:
    """Throughput in queries/min with scientific notation for large values."""
    if queries_per_minute == float("inf"):
        return "inf"
    if queries_per_minute >= 1e5:
        return f"{queries_per_minute:.2e} q/min"
    return f"{queries_per_minute:.1f} q/min"


def format_table(rows: Sequence[dict], columns: Sequence[str], title: str = "") -> str:
    """Render rows as a fixed-width text table with the given column order."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    header = list(columns)
    str_rows = []
    for row in rows:
        str_rows.append([_stringify(row.get(col, "")) for col in header])
    widths = [
        max(len(header[i]), *(len(r[i]) for r in str_rows)) for i in range(len(header))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _stringify(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def rows_to_csv(rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Serialise rows to CSV text (column order preserved)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


@dataclass
class ExperimentResult:
    """Structured result of one reproduced table or figure."""

    experiment: str
    title: str
    rows: list = field(default_factory=list)
    columns: list = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values) -> None:
        """Append one measurement row."""
        self.rows.append(values)
        for key in values:
            if key not in self.columns:
                self.columns.append(key)

    def filter(self, **criteria) -> list:
        """Return the rows matching every ``key=value`` criterion."""
        out = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                out.append(row)
        return out

    def series(self, x: str, y: str, **criteria) -> list[tuple]:
        """Return the ``(x, y)`` series of the matching rows (figure data)."""
        return [(row[x], row[y]) for row in self.filter(**criteria) if y in row]

    def to_text(self) -> str:
        """Render the result as the paper-style text table."""
        text = format_table(self.rows, self.columns, title=f"{self.experiment}: {self.title}")
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def to_csv(self) -> str:
        """Render the result rows as CSV."""
        return rows_to_csv(self.rows, self.columns)
