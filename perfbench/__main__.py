"""``python -m perfbench run | compare``.

``run`` measures every workload (or the ones named) the way the
benchmark contract does — one fresh interpreter per workload and per
``--trace`` value, through ``perfbench/run.py`` — and gathers the
results into one JSON document.  ``compare`` reads such documents.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from perfbench import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _worker(name: str, trace: int, args, probes: bool) -> dict | None:
    """Run one workload in a fresh interpreter; its full result, or
    None when it failed a correctness or validity check."""
    detail = OUT / f"detail-{name}-trace{trace}.json"
    detail.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--detail", str(detail),
           "--probes", str(int(probes))]
    if args.quick:
        cmd.append("--quick")
    if trace:
        cmd += ["--trace-out", str(OUT / f"trace-{name}.json")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    # The worker's last line is the contract's result object; the
    # document below carries the same numbers with their spreads.
    print(done.stdout.rsplit("\n", 2)[0] if done.returncode == 0
          else done.stdout, flush=True)
    return json.loads(detail.read_text()) if detail.exists() else None


def run(args, spec: dict) -> int:
    """Measure, print, and write the result document."""
    names = args.workload or [w["name"] for w in spec["workloads"]]
    OUT.mkdir(exist_ok=True)
    status = _git("status", "--porcelain")
    doc = {"schema": "perfbench/1", "seed": args.seed, "quick": args.quick,
           "seconds": args.seconds,
           "env": {"git_rev": _git("rev-parse", "HEAD"),
                   "git_dirty": bool(status) if status is not None else None},
           "workloads": {}, "probes": {}}
    failed = []
    for name in names:
        # The probes do not depend on the workload: once per run.
        want_probes = not doc["probes"]
        untraced = _worker(name, 0, args, False)
        traced = _worker(name, 1, args, want_probes)
        if untraced is None or traced is None:
            failed.append(name)
            continue
        layers = traced["metrics"]
        if want_probes:
            doc["probes"] = {k: layers.pop(k) for k in list(layers)
                             if ".probe" in k}
            doc["env"].update({k: v for k, v in untraced["env"].items()
                               if not k.startswith("loadavg")})
        attempted = untraced["attempted"] + traced["attempted"]
        bad = untraced["failed"] + traced["failed"]
        if bad:
            failed.append(name)
        doc["workloads"][name] = {
            "end_to_end": untraced["metrics"], "per_layer": layers,
            "budget": traced["budget"], "attempted": attempted,
            "failed": bad, "failed_share": bad / attempted,
            "batches": [untraced["batches"], traced["batches"]],
            "loadavg": [untraced["env"]["loadavg_start"],
                        traced["env"]["loadavg_end"]]}
    out = Path(args.out) if args.out else OUT / "perfbench.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"# wrote {os.path.relpath(out)}; spans of each traced run in "
          f"{os.path.relpath(OUT)}/trace-<workload>.json")
    if failed:
        print(f"# FAILED correctness or validity: {', '.join(failed)}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="measure workloads")
    p_run.add_argument("--workload", nargs="+", metavar="NAME",
                       choices=[w["name"] for w in spec["workloads"]])
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--seconds", type=int, default=spec["run_seconds"],
                       help="measured seconds of each untraced run "
                       "(default: BENCHMARK.json run_seconds)")
    p_run.add_argument("--quick", action="store_true",
                       help="3 small batches per phase: a smoke test")
    p_run.add_argument("--out", metavar="FILE")
    p_cmp = sub.add_parser("compare", help="compare result documents")
    p_cmp.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args, spec)
    if len(args.files) < 2:
        parser.error("compare needs a base file and at least one other")
    return compare.main(args.files, spec)


if __name__ == "__main__":
    sys.exit(main())
