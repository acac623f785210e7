"""Plain-text report formatting for benchmark results.

The paper presents results as bar charts and line plots; the harness prints
the same information as aligned text tables (one row per index, or one row per
x-axis point with one column per series).
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(rows: Sequence[Mapping], columns: Sequence[str] | None = None) -> str:
    """Format ``rows`` (dictionaries) as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[str(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(value.ljust(width) for value, width in zip(line, widths))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])


def format_series(
    x_label: str,
    x_values: Sequence,
    series: Mapping[str, Sequence[float]],
    value_format: str = "{:.3g}",
) -> str:
    """Format one figure's line series as a table with one column per series."""
    rows = []
    for position, x in enumerate(x_values):
        row = {x_label: x}
        for name, values in series.items():
            value = values[position] if position < len(values) else float("nan")
            row[name] = value_format.format(value)
        rows.append(row)
    return format_table(rows, columns=[x_label, *series.keys()])


def relative_factors(
    values: Mapping[str, float], reference: str, higher_is_better: bool = True
) -> dict[str, float]:
    """Express every entry of ``values`` as a factor relative to ``reference``.

    With ``higher_is_better`` (e.g. throughput), the factor is
    ``values[reference] / value`` inverted so that the reference gets 1.0 and
    a better entry gets a factor above 1.0; for lower-is-better metrics (e.g.
    index size) pass ``higher_is_better=False``.
    """
    if reference not in values:
        raise KeyError(f"reference {reference!r} not present in {sorted(values)}")
    base = values[reference]
    factors = {}
    for name, value in values.items():
        if higher_is_better:
            factors[name] = value / base if base else float("inf")
        else:
            factors[name] = base / value if value else float("inf")
    return factors
