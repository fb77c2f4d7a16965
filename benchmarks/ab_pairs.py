"""Interleaved parent/change pairs of one perfbench workload.

Two long-lived child interpreters, one per source tree, each build one
``perfbench.workloads`` workload and then run single batches on
request.  The driver asks for them in ABBA order (pair *i* runs the
parent first when *i* is even, the change first when it is odd), so
drift of the box over the series lands on both sides alike, and each
pair's ratio compares two batches run seconds apart.  Both children
are pinned to the same CPU and only one runs at a time.

Reported: every batch (side, pair, ops, seconds, op/s, instructions
charged), each pair's ratio change / parent of op/s, their median with
a percentile bootstrap interval, how many pairs the change won, and
whether the two batches of every pair charged the same instructions
(they must, for a change that keeps the model's counts).  A ratio above
1 means the change ran more ops per second.

    python benchmarks/ab_pairs.py --workload pingpong_1b --pairs 24
    python benchmarks/ab_pairs.py --workload msgrate_1b --parent HEAD~1
    python benchmarks/ab_pairs.py --quick        # A/A: HEAD against HEAD
    python benchmarks/ab_pairs.py --quick --parent .   # A/A of this tree

The parent tree is ``git archive <rev>`` of this repository, unpacked
into a temporary directory, or a directory given as it is; the change
tree is this checkout's working tree (under ``--quick``, the parent
tree again).  perfbench itself is imported from each tree and not
modified.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The child: build the workload in *tree*, then one batch per request
#: line on stdin, one JSON line per batch on stdout.
CHILD = r"""
import json, os, sys
tree, name, seed, quick = sys.argv[1:5]
sys.path[:0] = [tree, os.path.join(tree, "src")]
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from perfbench.workloads import WORKLOADS
workload = WORKLOADS[name](int(seed), quick=quick == "1")
print("ready", flush=True)
for line in sys.stdin:
    if line.strip() != "batch":
        break
    before = workload.world.total_instructions()
    b = workload.run_batch()
    print(json.dumps({"ops": b.ops, "failed": b.failed, "seconds": b.wall_s,
                      "instructions":
                          workload.world.total_instructions() - before}),
          flush=True)
"""


def export_tree(rev: str, into: Path) -> Path:
    """The tree *rev* names: a directory as it is, else ``git archive``
    of that revision of this repository unpacked into *into*."""
    if Path(rev).is_dir():
        return Path(rev)
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive,
                   check=True)
    return into


class Child:
    """One tree's long-lived interpreter running one workload."""

    def __init__(self, tree: Path, workload: str, seed: int, quick: bool):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tree), workload, str(seed),
             "1" if quick else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=tree)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"child for {tree} did not start")

    def batch(self) -> dict:
        """Run one batch; its ops, failed ops and wall seconds."""
        self.proc.stdin.write("batch\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child exited mid-series")
        return json.loads(line)

    def close(self) -> None:
        """End the child (closing its stdin ends its loop)."""
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def bootstrap(ratios: list[float], resamples: int = 2000,
              seed: int = 0) -> tuple[float, float]:
    """95 % percentile bootstrap interval of the median of *ratios*."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples)]


def run_pairs(parent: Path, change: Path, workload: str, pairs: int,
              seed: int, quick: bool) -> dict:
    """The ABBA series: every batch, each pair's ratio, the summary."""
    sides = {}
    try:
        sides["parent"] = Child(parent, workload, seed, quick)
        sides["change"] = Child(change, workload, seed, quick)
        for side in sides.values():      # warm-up, not reported
            side.batch()
        batches, ratios, same_counts = [], [], True
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                            "parent")
            rate, charged = {}, {}
            for name in order:
                b = sides[name].batch()
                b.update(side=name, pair=i, ops_per_s=b["ops"] / b["seconds"])
                batches.append(b)
                rate[name], charged[name] = b["ops_per_s"], b["instructions"]
            ratios.append(rate["change"] / rate["parent"])
            same_counts &= charged["change"] == charged["parent"]
    finally:
        for side in sides.values():
            side.close()
    low, high = bootstrap(ratios)
    return {"workload": workload, "pairs": pairs, "seed": seed,
            "quick": quick, "batches": batches, "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "interval_95": [low, high],
            "change_wins": sum(r > 1.0 for r in ratios),
            "counts_identical": same_counts,
            "failed": {s: sum(b["failed"] for b in batches
                              if b["side"] == s) for s in sides}}


def render(result: dict) -> str:
    """The report: every batch, then the summary line."""
    lines = [f"{result['workload']}: {result['pairs']} ABBA pairs "
             f"(seed {result['seed']}{', quick' if result['quick'] else ''})",
             f"{'pair':>4} {'side':<7} {'ops':>7} {'seconds':>9} "
             f"{'op/s':>11} {'instructions':>12}"]
    for b in result["batches"]:
        lines.append(f"{b['pair']:>4} {b['side']:<7} {b['ops']:>7} "
                     f"{b['seconds']:>9.4f} {b['ops_per_s']:>11.1f} "
                     f"{b['instructions']:>12}")
    low, high = result["interval_95"]
    lines.append(f"median ratio change/parent of op/s: "
                 f"{result['median_ratio']:.3f} [{low:.3f}, {high:.3f}]; "
                 f"change won {result['change_wins']}/{result['pairs']}; "
                 f"failed ops {result['failed']}; charged instructions "
                 f"{'identical' if result['counts_identical'] else 'DIFFER'}"
                 " per pair")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Command line: see the module docstring."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="pingpong_1b")
    ap.add_argument("--parent", default="HEAD",
                    help="revision (git archive) or directory of the "
                         "parent side")
    ap.add_argument("--pairs", type=int, default=24)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="an A/A smoke: the parent side against itself, "
                         "2 pairs of quick batches")
    ap.add_argument("--json", type=Path, default=None,
                    help="also write the result document here")
    args = ap.parse_args(argv)
    if args.quick:
        args.pairs = min(args.pairs, 2)
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        parent = export_tree(args.parent, Path(tmp, "parent"))
        change = parent if args.quick else ROOT
        result = run_pairs(parent, change, args.workload, args.pairs,
                           args.seed, args.quick)
    print(render(result))
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
