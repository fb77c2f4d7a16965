"""Compare result documents written by ``python -m perfbench run``.

The first file is the base; every later file is compared with it.  For
each workload and end-to-end metric the verdict follows the rule every
later performance claim is held to: *worse* when the median moved the
wrong way by more than the metric's bound, *unresolved* when either
side's own spread is wider than the bound (unless every sample of the
candidate beats every sample of the base), *ok* otherwise.  Each
number is a median over a run's batches, so its spread is the
uncertainty of that median: the distance between the quartiles of the
batch samples over the root of their count.  Count metrics that repeat
exactly are compared for equality.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Counts decided by the workload and the build, not by the scheduler:
#: they repeat bit for bit from run to run and under any seed.
EXACT = (
    "mpi.pt2pt.calls_per_op", "mpi.collectives.msgs_per_op",
    "core.ch4.calls_per_op", "core.ch4.eager_share", "netmod.native_share",
    "runtime.request.calls_per_op", "runtime.request.pool_reuse_share",
    "runtime.request.wait_calls_per_op", "instrument.charge_calls_per_op",
    "instrument.charged_instr_per_op", "instrument.vtime_us_per_op",
    "datatypes.views_per_op",
)
#: Counts that are exact only where the workload, not the scheduler,
#: decides whether a message finds its receive posted ...
EXACT_WHERE_MATCHING_IS_FIXED = (
    "runtime.matching.posted_hit_share",
    "runtime.matching.unexpected_depth_peak",
    "datatypes.copies_per_op", "datatypes.bytes_copied_per_payload_byte",
)
#: ... which it does not on these three: their blocking calls race the
#: peer's send, and an unexpected arrival costs one more copy.
SCHEDULER_DECIDES_MATCHING = (
    "pingpong_1b", "halo_vector_32k", "allreduce_4r_64k")


def exact_metrics(workload: str) -> tuple[str, ...]:
    """The per-layer metrics that must repeat exactly on *workload*."""
    if workload in SCHEDULER_DECIDES_MATCHING:
        return EXACT
    return EXACT + EXACT_WHERE_MATCHING_IS_FIXED


def _worsening(base: float, new: float, better: str) -> float:
    """How far *new* is on the wrong side of *base*, as a share of it."""
    change = (new - base) / base
    return -change if better == "higher" else change


def _spread(metric: dict) -> float:
    """Uncertainty of a reported median, as a share of it."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    iqr = abs(metric["q3"] - metric["q1"])
    return iqr / math.sqrt(metric["n"]) / abs(metric["value"])


def _all_better(base: dict, new: dict, better: str) -> bool:
    a, b = base.get("samples"), new.get("samples")
    if not a or not b:
        return False
    return min(b) > max(a) if better == "higher" else max(b) < min(a)


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one metric."""
    if max(_spread(base), _spread(new)) > bound:
        return "ok" if _all_better(base, new, better) else "unresolved"
    if _worsening(base["value"], new["value"], better) > bound:
        return "worse"
    return "ok"


def compare(spec: dict, base: dict, new: dict) -> tuple[list[str], dict]:
    """Report lines and verdict counts for one candidate document."""
    lines, tally = [], {"ok": 0, "worse": 0, "unresolved": 0,
                        "same": 0, "differs": 0}
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        lines.append(f"{name}")
        for m in spec["end_to_end"]:
            ma, mb = a["end_to_end"].get(m["name"]), \
                b["end_to_end"].get(m["name"])
            if ma is None or mb is None:
                continue
            v = verdict(ma, mb, m["better"], m["bound"])
            tally[v] += 1
            change = (mb["value"] - ma["value"]) / ma["value"]
            lines.append(
                f"  {m['name']:<20}{ma['value']:>12.6g} ->"
                f"{mb['value']:>12.6g} {m['unit']:<6}"
                f"{change:>+8.2%} of {ma['value']:.6g}  "
                f"bound {m['bound']:.0%} {m['better']:<6}  "
                f"spread {_spread(ma):.1%}/{_spread(mb):.1%}  {v}")
        # Any failed op is a regression: the bound is zero, absolute.
        fa, fb = a["failed_share"], b["failed_share"]
        v = "worse" if fb > 0 and fb >= fa else "ok"
        tally[v] += 1
        lines.append(f"  {'failed_share':<20}{fa:>12.6g} ->{fb:>12.6g}"
                     f"{'':<44}bound 0 absolute  {v}")
        for metric in exact_metrics(name):
            ma, mb = a["per_layer"].get(metric), b["per_layer"].get(metric)
            if ma is None or mb is None:
                continue
            v = "same" if ma["value"] == mb["value"] else "differs"
            tally[v] += 1
            if v == "differs":
                lines.append(f"  {metric:<44}{ma['value']!r} -> "
                             f"{mb['value']!r}  differs")
    return lines, tally


def main(paths: list[str], spec: dict) -> int:
    """Print the comparison of every later file with the first; exit
    code 1 on any ``worse`` or any exact count that ``differs``."""
    docs = [json.loads(Path(p).read_text()) for p in paths]
    bad = 0
    for path, doc in zip(paths[1:], docs[1:]):
        print(f"== {paths[0]} (base, {docs[0]['env'].get('git_rev')}) vs "
              f"{path} ({doc['env'].get('git_rev')})")
        lines, tally = compare(spec, docs[0], doc)
        print("\n".join(lines))
        print(f"== end to end: {tally['ok']} ok, {tally['worse']} worse, "
              f"{tally['unresolved']} unresolved; exact counts: "
              f"{tally['same']} same, {tally['differs']} differ")
        bad += tally["worse"] + tally["differs"]
    return 1 if bad else 0
