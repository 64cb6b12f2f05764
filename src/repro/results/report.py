"""Rendering aggregates and bound comparisons as text, markdown, CSV or JSON.

:func:`format_table` is the monospace table behind terminal output (the CLI,
the benchmark harnesses and :func:`render_table1`), and the markdown
renderer applies the same value formatting so numbers look identical across
formats.  :func:`render_report` assembles the full paper-bound report —
record inventory, grouped aggregates with confidence intervals,
per-algorithm verdicts and a regenerated paper-vs-measured Table 1.
"""

from __future__ import annotations

import csv
import io
import json
from statistics import mean
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.analysis.bounds import table1_rows
from repro.results.aggregate import (
    DEFAULT_GROUP_BY,
    DEFAULT_METRICS,
    aggregate,
    aggregate_columns,
)
from repro.results.compare import bound_ratio_rows, compare_to_bounds
from repro.results.records import RunRecord, coerce_record
from repro.utils.validation import ConfigurationError

#: Formats accepted by every renderer in this module.
FORMATS = ("text", "md", "csv", "json")

#: Column order for the per-algorithm comparison table.
COMPARISON_COLUMNS = (
    "algorithm", "metric", "paper_bound", "points", "runs",
    "measured_exponent", "bound_exponent", "max_ratio", "verdict",
)

#: Column order for the pointwise ratio table.
RATIO_COLUMNS = ("algorithm", "n", "k", "s", "runs", "measured", "bound", "ratio")


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-2:
            return f"{value:.3e}"
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _format_cell(value: Any) -> str:
    """Like :func:`_format_value`, but ints stay ungrouped and ``None`` is a dash."""
    if value is None:
        return "—"
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return _format_value(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a list of rows as an aligned monospace table."""
    if not headers:
        raise ConfigurationError("a table needs at least one column")
    rendered_rows = [[_format_value(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ConfigurationError("every row must have one cell per header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    separator = "-+-".join("-" * width for width in widths)
    lines.append(header_line)
    lines.append(separator)
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_table1(num_nodes: int) -> str:
    """Regenerate Table 1 (amortized message complexity per token regime) for one n."""
    rows = table1_rows(num_nodes)
    return format_table(
        headers=["tokens (k)", "paper bound", "evaluated amortized bound"],
        rows=[
            [row.label, f"O({row.paper_expression})", row.amortized_bound] for row in rows
        ],
    )


def render_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """A GitHub-flavoured markdown table."""
    if not headers:
        raise ConfigurationError("a table needs at least one column")
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError("every row must have one cell per header")
        lines.append("| " + " | ".join(_format_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def render_csv_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """CSV with a header row (raw values, no display formatting)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue().rstrip("\n")


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    fmt: str = "md",
) -> str:
    """Dispatch to the text / markdown / CSV / JSON renderer."""
    if fmt == "text":
        return format_table(headers, [[_format_cell(cell) for cell in row] for row in rows])
    if fmt == "md":
        return render_markdown_table(headers, rows)
    if fmt == "csv":
        return render_csv_table(headers, rows)
    if fmt == "json":
        return json.dumps(
            [dict(zip(headers, row)) for row in rows], indent=2, sort_keys=True
        )
    raise ConfigurationError(f"unknown format {fmt!r}; use one of {FORMATS}")


def rows_to_table(
    row_dicts: Sequence[Mapping[str, Any]],
    columns: Sequence[str],
    fmt: str = "md",
) -> str:
    """Render dictionaries through :func:`render_table` with a fixed column order."""
    return render_table(
        columns, [[row.get(column) for column in columns] for row in row_dicts], fmt
    )


def render_aggregates(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    *,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Sequence[str] = DEFAULT_METRICS,
    fmt: str = "md",
    statistics: Sequence[str] = ("mean", "ci_low", "ci_high"),
) -> str:
    """Aggregate records and render the rows in the requested format."""
    rows = aggregate(records, group_by, metrics)
    return rows_to_table(rows, aggregate_columns(group_by, metrics, statistics=statistics), fmt)


def render_comparison(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    *,
    fmt: str = "md",
    x_axis: str = "n",
) -> str:
    """Render the per-algorithm paper-vs-measured verdict table."""
    rows = compare_to_bounds(records, x_axis=x_axis)
    if not rows:
        raise ConfigurationError(
            "no algorithm in these records has a registered bound; "
            "see repro.results.compare.register_bound"
        )
    return rows_to_table(rows, COMPARISON_COLUMNS, fmt)


def render_table1_vs_measured(
    records: Sequence[RunRecord],
    *,
    fmt: str = "md",
) -> str:
    """Regenerate Table 1 at the largest measured n, with a measured column.

    For each of the paper's k regimes the analytic amortized bound is shown
    next to the mean measured amortized cost of the oblivious-algorithm runs
    whose k is closest to the regime's k (only exact-n runs participate);
    regimes with no nearby measurement show an em dash.
    """
    if not records:
        raise ConfigurationError("no records to compare against Table 1")
    # Anchor n on the oblivious runs when any exist — Table 1 is about the
    # oblivious algorithm, and another algorithm's larger sweep must not
    # push n past every measurement.
    oblivious_ns = [record.n for record in records if record.algorithm == "oblivious"]
    n = max(oblivious_ns) if oblivious_ns else max(record.n for record in records)
    oblivious = [
        record for record in records
        if record.algorithm == "oblivious" and record.n == n
    ]
    rows = []
    for table_row in table1_rows(n):
        measured: Optional[float] = None
        if oblivious:
            nearest_k = min(
                (record.k for record in oblivious),
                key=lambda k: (abs(k - table_row.num_tokens), k),
            )
            if 0.5 <= nearest_k / table_row.num_tokens <= 2.0:
                measured = mean(
                    sorted(
                        record.amortized_messages
                        for record in oblivious
                        if record.k == nearest_k
                    )
                )
        rows.append(
            [
                table_row.label,
                f"O({table_row.paper_expression})",
                table_row.amortized_bound,
                measured,
            ]
        )
    headers = ["tokens (k)", "paper bound", "evaluated bound", "measured amortized"]
    return render_table(headers, rows, fmt)


def render_report(
    records: Iterable[Union[RunRecord, Mapping[str, Any]]],
    *,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    metrics: Sequence[str] = DEFAULT_METRICS,
    x_axis: str = "n",
    title: str = "Results report",
    with_bounds: bool = True,
) -> str:
    """The full markdown report: inventory, aggregates, verdicts, Table 1.

    ``with_bounds=False`` omits the paper-bound comparison sections (and
    the Table 1 regeneration, which is itself a bound comparison).
    """
    records = [coerce_record(record) for record in records]
    if not records:
        raise ConfigurationError("no records to report on")
    algorithms = sorted({record.algorithm for record in records})
    adversaries = sorted({record.adversary for record in records})
    sections = [
        f"# {title}",
        "",
        f"- records: **{len(records)}** "
        f"({sum(1 for record in records if record.completed)} completed)",
        f"- algorithms: {', '.join(f'`{name}`' for name in algorithms)}",
        f"- adversaries: {', '.join(f'`{name}`' for name in adversaries)}",
        f"- n range: {min(record.n for record in records)}"
        f"–{max(record.n for record in records)}, "
        f"k range: {min(record.k for record in records)}"
        f"–{max(record.k for record in records)}",
        "",
        f"## Aggregates (grouped by {', '.join(group_by)})",
        "",
        render_aggregates(records, group_by=group_by, metrics=metrics, fmt="md"),
        "",
    ]
    ratio_rows = bound_ratio_rows(records) if with_bounds else []
    if ratio_rows:
        sections += [
            "## Paper bounds vs measured",
            "",
            rows_to_table(compare_to_bounds(records, x_axis=x_axis), COMPARISON_COLUMNS, "md"),
            "",
            "### Pointwise ratio to bound",
            "",
            rows_to_table(ratio_rows, RATIO_COLUMNS, "md"),
            "",
        ]
    if with_bounds:
        sections += [
            "## Table 1 (paper vs measured)",
            "",
            render_table1_vs_measured(records, fmt="md"),
            "",
        ]
    return "\n".join(sections)
