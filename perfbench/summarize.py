"""Turn span files into the per-layer table.

Usage::

    python3 perfbench/summarize.py TRACE.jsonl [MORE.jsonl ...]

Each file holds one JSON span per line (see ``spans.py``).  Files from
several processes of one run may be given together: a span whose parent
id is in another file still nests under it.  For every span name the
table gives the count, total time, self time and self time as a share
of the wall the spans cover.

Self time is a span's duration minus the part of its interval that its
child spans cover.  Children on other threads count too, and
overlapping children are merged first, so self time is never negative
and never counted twice.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def load(paths) -> list[dict]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of *children* clipped to *interval*."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span, by span id."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        interval = (span["start"], span["end"])
        result[span["id"]] = (interval[1] - interval[0]) - covered(
            interval, children.get(span["id"], [])
        )
    return result


def table(spans: list[dict], wall: float | None = None) -> tuple[list[dict], float]:
    """Per-name rows sorted by self time, and the wall they are shares of.

    ``calls`` counts only spans whose parent has another name, so a
    layer that calls itself (a store method using another) counts once.
    """
    if wall is None:
        wall = (
            max(s["end"] for s in spans) - min(s["start"] for s in spans)
            if spans else 0.0
        )
    names = {s["id"]: s["name"] for s in spans}
    own = self_times(spans)
    rows: dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(
            span["name"],
            {"name": span["name"], "count": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0},
        )
        row["count"] += 1
        if names.get(span.get("parent")) != span["name"]:
            row["calls"] += 1
            row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    ordered = sorted(rows.values(), key=lambda r: (-r["self_s"], r["name"]))
    for row in ordered:
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    return ordered, wall


def format_table(rows: list[dict], wall: float) -> str:
    lines = [
        f"{'span':<28} {'calls':>8} {'total s':>10} {'self s':>10} {'self/wall':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<28} {row['calls']:>8} {row['total_s']:>10.4f}"
            f" {row['self_s']:>10.4f} {row['share']:>8.1%}"
        )
    lines.append(f"{'wall':<28} {'':>8} {wall:>10.4f}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rows, wall = table(load(argv))
    print(format_table(rows, wall))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
