"""Plain-text report documents with CSV attachments.

Rationals are always rendered exactly (``a/b``) in report tables; decimal
approximations appear only in dedicated CSV columns, are display-only, and
never feed back into any computation.  Rendering is deterministic, so
identical inputs give byte-identical reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction

_DECIMAL_CONTEXT = Context(prec=20, rounding=ROUND_HALF_EVEN)


def fmt_q(value: Fraction) -> str:
    """Exact rendering, ``a/b`` (or a bare integer)."""
    return str(value)


def fmt_decimal(value: Fraction) -> str:
    """20 significant digits, round-half-even; display only."""
    num = _DECIMAL_CONTEXT.create_decimal(value.numerator)
    den = _DECIMAL_CONTEXT.create_decimal(value.denominator)
    return str(_DECIMAL_CONTEXT.divide(num, den))


def fmt_vector(values) -> str:
    return "(" + ", ".join(fmt_q(v) for v in values) + ")"


def table_lines(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Left-aligned fixed-width text table."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]

    def render(cells):
        return "  ".join(map(str.ljust, cells, widths)).rstrip()
    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return lines


def csv_text(headers: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass
class ReportDocument:
    """Ordered ``(title, lines)`` sections plus named CSV payloads."""

    title: str
    sections: list[tuple[str, list[str]]] = field(default_factory=list)
    csv_attachments: list[tuple[str, str]] = field(default_factory=list)

    def add(self, title: str, lines: list[str]) -> None:
        self.sections.append((title, lines))

    def render(self) -> str:
        out = [self.title, "=" * len(self.title), ""]
        for title, lines in self.sections:
            out.append(title)
            out.append("-" * len(title))
            out.extend(lines)
            out.append("")
        if self.csv_attachments:
            names = ", ".join(name for name, _ in self.csv_attachments)
            out.append(f"csv attachments: {names}")
            out.append("")
        return "\n".join(out)
