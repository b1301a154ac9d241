"""The one CSV writer behind every table disqo emits."""

from __future__ import annotations


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows``: strings as they are, ints in decimal, and
    every other cell as ``format(float(v), ".17g")``, which reads back as the
    same float64."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")
