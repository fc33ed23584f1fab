"""Plain-text table/series rendering for experiment output.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that formatting in one place and free of
any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

__all__ = ["format_table", "format_series", "normalize_rows"]


def format_table(
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    title: str = "",
    fmt: str = "{:.3g}",
    row_header: str = "",
    missing: str = "-",
) -> str:
    """Render a nested mapping ``rows[row][column] -> value`` as text.

    Parameters
    ----------
    rows:
        Outer keys are row labels (e.g. controller names), inner mappings
        hold the column values.  Missing (or ``None``) cells render as
        ``missing``.
    columns:
        Column order.
    title:
        Optional heading printed above the table.
    fmt:
        ``str.format`` spec applied to each numeric cell.
    row_header:
        Label of the row-name column.
    missing:
        Text shown for missing cells.
    """
    if not columns:
        raise ValueError("columns must be non-empty")
    header = [row_header] + list(columns)
    body = []
    for row_name, cells in rows.items():
        line = [str(row_name)]
        for col in columns:
            value = cells.get(col)
            line.append(missing if value is None else fmt.format(value))
        body.append(line)
    widths = [
        max(len(str(r[i])) for r in [header] + body) for i in range(len(header))
    ]
    def render(parts: Sequence[str]) -> str:
        return "  ".join(str(p).rjust(w) for p, w in zip(parts, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render(header))
    lines.append(render(["-" * w for w in widths]))
    lines.extend(render(b) for b in body)
    return "\n".join(lines)


def format_series(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    x_label: str = "x",
    title: str = "",
    fmt: str = "{:.4g}",
) -> str:
    """Render aligned columns of one x-axis plus named y-series — the text
    equivalent of a line plot."""
    if not series:
        raise ValueError("series must be non-empty")
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValueError(
                f"series {name!r} has {len(ys)} points but x has {len(x)}"
            )
    rows: Dict[str, Dict[str, float]] = {}
    for i, xv in enumerate(x):
        rows[fmt.format(xv)] = {name: series[name][i] for name in series}
    return format_table(rows, list(series), title=title, fmt=fmt, row_header=x_label)


def normalize_rows(
    rows: Mapping[str, Mapping[str, float]], reference_row: str
) -> Dict[str, Dict[str, float]]:
    """Divide every row elementwise by ``reference_row`` (speedup/ratio
    tables).  Reference cells that are zero yield ``float('inf')`` for
    positive values, matching "x times better than a zero baseline"."""
    if reference_row not in rows:
        raise KeyError(f"reference row {reference_row!r} not in table")
    ref = rows[reference_row]
    out: Dict[str, Dict[str, float]] = {}
    for name, cells in rows.items():
        out[name] = {}
        for col, value in cells.items():
            denominator = ref.get(col)
            if denominator is None:
                continue
            if denominator == 0:
                out[name][col] = float("inf") if value > 0 else 1.0
            else:
                out[name][col] = value / denominator
    return out
