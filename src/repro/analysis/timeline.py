"""Virtual-time event timelines (per-rank MPI-call traces).

Enable before a run, then render an ASCII Gantt chart and per-call
summary from the recorded virtual-time spans — the runtime's answer to
the trace-viewer step of a classic MPI performance study:

>>> world = World(2)                               # doctest: +SKIP
>>> enable_timeline(world)                         # doctest: +SKIP
>>> world.run(app)                                 # doctest: +SKIP
>>> print(render_gantt(world))                     # doctest: +SKIP

Recorded spans cover MPI *call* time (issue paths).  Application
phases can be marked explicitly with :func:`mark`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, NamedTuple

from repro.instrument.report import format_table
from repro.runtime.world import World


class TimelineEvent(NamedTuple):
    """One recorded virtual-time span on one rank (a tuple, so a span
    is built at C level — no Python frame inside the call it times)."""

    name: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        """Span length in virtual seconds."""
        return self.t1 - self.t0


def enable_timeline(world: World) -> None:
    """Start recording MPI-call events on every rank of *world*."""
    for proc in world.procs:
        proc.timeline = []


def disable_timeline(world: World) -> None:
    """Stop recording (existing events are discarded)."""
    for proc in world.procs:
        proc.timeline = None


@contextmanager
def mark(proc, name: str) -> Iterator[None]:
    """Record an application phase (e.g. ``compute``) on *proc*'s
    timeline; no-op when the timeline is disabled."""
    if proc.timeline is None:
        yield
        return
    t0 = proc.vclock.now
    try:
        yield
    finally:
        proc.timeline.append(TimelineEvent(name=name, t0=t0,
                                           t1=proc.vclock.now))


def summarize(world: World) -> list[dict]:
    """Per-call-name statistics across all ranks."""
    stats: dict[str, dict] = {}
    for proc in world.procs:
        for event in proc.timeline or ():
            rec = stats.setdefault(event.name, {"count": 0, "total": 0.0,
                                                "max": 0.0})
            rec["count"] += 1
            rec["total"] += event.duration
            rec["max"] = max(rec["max"], event.duration)
    rows = []
    for name in sorted(stats, key=lambda n: -stats[n]["total"]):
        rec = stats[name]
        rows.append({"name": name, "count": rec["count"],
                     "total_us": rec["total"] * 1e6,
                     "mean_ns": (rec["total"] / rec["count"]) * 1e9,
                     "max_ns": rec["max"] * 1e9})
    return rows


def render_summary(world: World) -> str:
    """The per-call summary as a text table."""
    rows = [[r["name"], r["count"], r["total_us"], r["mean_ns"],
             r["max_ns"]] for r in summarize(world)]
    return format_table(
        ["Call", "Count", "Total (us)", "Mean (ns)", "Max (ns)"], rows,
        title="Timeline summary (virtual time)")


def render_gantt(world: World, width: int = 72) -> str:
    """ASCII Gantt chart: one lane per rank, virtual time left to
    right, each cell showing the event active in that time bucket
    (first letter of its name; '.' = no recorded event)."""
    horizon = world.max_vtime()
    if horizon <= 0:
        return "(empty timeline)"
    lines = [f"virtual time 0 .. {horizon * 1e6:.2f} us "
             f"({width} buckets)"]
    bucket = horizon / width
    for proc in world.procs:
        lane = ["."] * width
        for event in proc.timeline or ():
            b0 = min(int(event.t0 / bucket), width - 1)
            b1 = min(int(event.t1 / bucket), width - 1)
            letter = event.name.replace("MPI_", "")[:1] or "?"
            for b in range(b0, b1 + 1):
                lane[b] = letter
        lines.append(f"rank {proc.world_rank:>3d} |{''.join(lane)}|")
    legend = sorted({event.name for proc in world.procs
                     for event in (proc.timeline or ())})
    if legend:
        lines.append("legend: " + ", ".join(
            f"{name.replace('MPI_', '')[:1]}={name}" for name in legend))
    return "\n".join(lines)
