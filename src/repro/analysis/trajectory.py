"""The recorded wall-clock trajectory as text.

``perf/trajectory.jsonl`` holds one line per landed revision (schema in
``perf/README.md``).  :func:`render_trajectory` prints, per perfbench
workload, one row per line: the median of each end-to-end metric and
the two exact counts.  A PR measures its parent and itself as
alternating pairs and records both; its own line (``rev`` = ``PR N
(parent X)``) prints each median's ratio to line ``X``, the only
comparison the box supports — the same revision re-measured a day
apart reads 0.64-1.14x of itself, so a parent line prints none.  These
are *measured* wall-clock numbers, never to be merged with the modeled
figures.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.instrument.report import format_table

#: ``perf/trajectory.jsonl`` of the checkout this package runs from.
DEFAULT_PATH = Path(__file__).resolve().parents[3] / "perf" / "trajectory.jsonl"

#: The end-to-end metrics of ``BENCHMARK.json`` and their column heads.
METRICS = (("ops_per_s", "op/s"), ("latency_us_p50", "p50 us"),
           ("payload_mb_per_s", "MB/s"), ("setup_s", "setup s"),
           ("peak_rss_mb", "rss MB"))


def load_trajectory(path: Path = DEFAULT_PATH) -> list[dict]:
    """The trajectory's lines, oldest first."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def _cell(entry: dict, previous: dict | None, metric: str) -> str:
    median = entry[metric]["median"]
    if median is None:
        return "-"
    cell = f"{median:,.0f}" if median >= 1000 else f"{median:.4g}"
    before = previous[metric]["median"] if previous else None
    if before:
        cell += f" ({median / before:.2f}x)"
    return cell


def render_trajectory(path: Path = DEFAULT_PATH) -> str:
    """One table per workload; each cell is a median and, on a PR's
    own line, in brackets its ratio to the parent line that PR
    measured beside it (higher is better for op/s and MB/s, lower for
    the rest)."""
    if not path.exists():
        return f"no recorded trajectory at {path}"
    rows = load_trajectory(path)
    by_rev = {row["rev"]: row["workloads"] for row in rows}
    pairs = [re.fullmatch(r"PR \d+ \(parent (\w+)\)", row["rev"])
             for row in rows]
    parents = [by_rev.get(pair[1]) if pair else None for pair in pairs]
    tables = []
    for name in sorted(rows[-1]["workloads"]):
        body = []
        for row, parent in zip(rows, parents):
            entry = row["workloads"][name]
            body.append([row["rev"], row["date"],
                         *(_cell(entry, parent and parent[name], m)
                           for m, _ in METRICS),
                         f"{entry['charged_instr_per_op']:.6g}",
                         f"{entry['vtime_us_per_op']:.6g}"])
        tables.append(format_table(
            ["rev", "date", *(head for _, head in METRICS),
             "instr/op", "vtime us/op"], body,
            title=f"{name}: measured medians (a PR's ratio to its parent)"))
    return "\n\n".join(tables)
