"""One workload in one fresh interpreter: the command of BENCHMARK.json.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures a short untraced reference, then installs the
span wrappers of :mod:`perfbench.trace`, measures again, removes them,
runs the probes, and reports the per-layer metrics.  Either way every
metric is printed by name with its unit, and the last line of standard
output is the result object the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no runtime to measure under {ROOT / 'src'}")
# Run as a script, so neither the package nor the runtime is importable yet.
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from repro.instrument.report import format_table  # noqa: E402

from perfbench import probes, trace  # noqa: E402
from perfbench.workloads import (WORKLOADS, Counters, Workload,  # noqa: E402
                                 check_calibration, count_metrics)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Shares of ``--seconds`` a traced run gives its two measured phases
#: (the rest of its time goes to the probes).
UNTRACED_SHARE, TRACED_SHARE = 0.25, 0.4
#: Metrics on the virtual clock or in abstract instructions; every
#: other number is wall-clock, CPU time or a count of real events.
CHARGED = ("instrument.charged_instr_per_op", "instrument.vtime_us_per_op")


def pin_cpu() -> int | None:
    """Pin the process to its lowest allowed CPU.  Rank threads share
    the GIL, so a second core adds only cross-core hand-off noise: the
    unpinned ping-pong flips between two modes 70% apart."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        print(f"perfbench: warning: cannot pin to one CPU ({exc})",
              file=sys.stderr)
        return None
    return cpu


def loadavg() -> float:
    """1-minute load average; a busy neighbour is the main cause of a
    spread wider than the bounds.  The benchmark keeps one CPU busy
    itself, this run and the one before it, so that 1.0 is not held
    against the neighbours."""
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    if load - 1.0 > 0.5 * nproc:
        print(f"perfbench: warning: load average {load:.2f} on {nproc} "
              "CPUs, timings may spread", file=sys.stderr)
    return load


def summary(samples: list[float]) -> dict:
    """Median and count of *samples* and, when there are enough of
    them for quartiles to mean something, the quartiles and samples."""
    value = statistics.median(samples)
    if len(samples) < 8:
        return {"value": value, "n": len(samples)}
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": value, "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def set_up(cls: type[Workload], seed: int, quick: bool,
           repeats: int) -> tuple[Workload, list[float]]:
    """Build the workload *repeats* times, each with its warm-up batch;
    returns the last one and every set-up time."""
    times, workload = [], None
    for _ in range(repeats):
        workload = None
        gc.collect()   # worlds are cyclic; free the last set-up's arrays
        t0 = time.perf_counter()
        workload = cls(seed, quick)
        workload.run_batch()
        times.append(time.perf_counter() - t0)
    return workload, times


def measure(workload: Workload, seconds: float, min_batches: int) -> list:
    """Run batches until *seconds* have passed and *min_batches* ran.
    A batch that raised leaves the world in an unknown state, so it is
    the last one."""
    batches = []
    deadline = time.perf_counter() + seconds
    while len(batches) < min_batches or time.perf_counter() < deadline:
        batch = workload.run_batch()
        batches.append(batch)
        if batch.unit_ns is None:
            break
    return batches


def _good(batches: list) -> list:
    good = [b for b in batches if b.unit_ns is not None]
    if not good:
        sys.exit("perfbench: no batch completed")
    return good


def end_to_end(workload: Workload, batches: list,
               setups: list[float]) -> dict[str, dict]:
    """The end-to-end metrics of an untraced phase."""
    good = _good(batches)
    per_op = workload.ops_per_unit * 1000.0   # unit ns -> µs per op
    rates = [b.ops / b.wall_s for b in good]
    megabytes = workload.payload_bytes_per_op / 1e6
    return {
        "ops_per_s": summary(rates),
        "latency_us_p50": summary(
            [float(np.percentile(b.unit_ns, 50)) / per_op for b in good]),
        "payload_mb_per_s": summary([r * megabytes for r in rates]),
        "setup_s": summary(setups),
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "n": 1},
    }


def per_layer(workload: Workload, untraced: list, traced: list,
              tracer: trace.Tracer) -> tuple[dict[str, dict], list[dict]]:
    """The timed per-layer metrics and the layer budget."""
    good = _good(traced)
    ops = sum(b.ops for b in good)
    totals = tracer.totals()

    def row(name: str) -> dict[str, int]:
        return totals.get(name, {"calls": 0, "self_ns": 0, "total_ns": 0})

    def us(name: str) -> float:
        return row(name)["self_ns"] / ops / 1000.0

    def calls(name: str) -> float:
        return row(name)["calls"] / ops

    fence = tracer.totals("mpi-rank-0").get("mpi.rma.fence")
    busy_ns = sum(r["self_ns"] for n, r in totals.items() if n != trace.WAIT)
    us_per_op = [b.wall_s / b.ops * 1e6 for b in good]
    ref_us_per_op = [b.wall_s / b.ops * 1e6 for b in _good(untraced)]
    values = {
        "mpi.pt2pt.self_us_per_op": us("mpi.pt2pt"),
        "mpi.pt2pt.calls_per_op": calls("mpi.pt2pt"),
        "mpi.collectives.self_us_per_op": us("mpi.collectives"),
        "mpi.rma.put_self_us_per_op": us("mpi.rma.put"),
        "mpi.rma.fence_us_per_epoch":
            fence["total_ns"] / fence["calls"] / 1000.0 if fence else 0.0,
        "core.ch4.self_us_per_op": us("core.ch4"),
        "core.ch4.calls_per_op": calls("core.ch4"),
        "netmod.issue_us_per_op": us("netmod"),
        "runtime.proc.deliver_us_per_op": us("runtime.proc"),
        "runtime.matching.self_us_per_op": us("runtime.matching"),
        "runtime.request.self_us_per_op": us("runtime.request"),
        "runtime.request.calls_per_op": calls("runtime.request"),
        "runtime.request.wait_blocked_us_per_op": us(trace.WAIT),
        "runtime.request.wait_calls_per_op": calls(trace.WAIT),
        "instrument.charge_us_per_op": us("instrument"),
        "instrument.charge_calls_per_op": calls("instrument"),
        "datatypes.pack_us_per_op": us("datatypes.pack"),
        "datatypes.unpack_us_per_op": us("datatypes.unpack"),
        "workload.op.self_us_per_op": us(trace.ROOT),
        "trace.overhead_ratio":
            statistics.median(us_per_op) / statistics.median(ref_us_per_op),
        "trace.coverage_share":
            busy_ns / (sum(b.cpu_s for b in good) * 1e9),
    }
    metrics = {name: {"value": v, "n": len(good)}
               for name, v in values.items()}
    metrics["process.cpu_us_per_op"] = summary(
        [b.cpu_s / b.ops * 1e6 for b in _good(untraced)])
    # The tail belongs to whoever preempts the rank threads: on a shared
    # box it moves severalfold with the neighbours, so it is reported
    # here, without a bound, and not among the end-to-end metrics.
    metrics["latency_us_p99"] = summary(
        [float(np.percentile(b.unit_ns, 99)) / workload.ops_per_unit / 1000.0
         for b in _good(untraced)])
    return metrics, trace.budget(totals, ops)


def check_identity(workload: Workload, counts: dict[str, float]) -> None:
    """A run whose defining counts are off measured another workload:
    fail it instead of reporting a number under the wrong name."""
    for name, expected in workload.must_read.items():
        if counts[name] != expected:
            sys.exit(f"perfbench: {workload.name} is invalid: {name} reads "
                     f"{counts[name]!r}, the workload is defined by "
                     f"{expected!r}")


def traced_phase(workload: Workload, reference: list, seconds: float,
                 min_batches: int, trace_out: str | None):
    """Install the span wrappers, measure, remove them; returns the
    traced batches, the per-layer metrics and the layer budget."""
    tracer = trace.Tracer()
    tracer.install(trace.runtime_targets() + [
        (type(workload), m, trace.ROOT) for m in workload.unit_methods])
    try:
        traced = measure(workload, seconds, min_batches)
    finally:
        tracer.uninstall()
    if trace_out:
        out = Path(trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(tracer.chrome_trace()))
    return (traced, *per_layer(workload, reference, traced, tracer))


def report(workload: Workload, args: argparse.Namespace, metrics: dict,
           budget_rows: list | None, batches: int, attempted: int,
           failed: int, env: dict) -> None:
    """Print every metric by name with its unit, the layer budget, and
    last the result object the benchmark contract asks for; write the
    full result where ``--detail`` says."""
    print(f"# {workload.name}: {batches} batches of "
          f"{workload.ops_per_batch} {workload.op}s, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, m in metrics.items():
        spread = (f"  [{m['q1']:.6g} .. {m['q3']:.6g}]" if "q1" in m else "")
        print(f"{name:<46}{m['value']:>14.6g} {m['unit']:<10}"
              f"{m['kind']:<9}n={m['n']}{spread}")
    if budget_rows:
        print(f"# layer budget, per {workload.op}")
        print(format_table(
            ["layer", "calls/op", "self us/op", "share"],
            [[r["layer"], r["calls_per_op"], r["self_us_per_op"],
              "" if r["share"] is None else f"{r['share']:.1%}"]
             for r in budget_rows]))
    print(f"# attempted {attempted}, failed {failed}")
    if args.detail:
        detail = {"workload": workload.name, "seed": args.seed,
                  "trace": args.trace, "quick": args.quick, "env": env,
                  "batches": batches, "attempted": attempted,
                  "failed": failed, "failed_share": failed / attempted,
                  "metrics": metrics, "budget": budget_rows}
        Path(args.detail).write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))


def run(args: argparse.Namespace, spec: dict) -> int:
    """Measure one workload; returns the exit code."""
    env = {"pinned_cpu": pin_cpu(), "loadavg_start": loadavg(),
           "python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(),
           "switchinterval_s": sys.getswitchinterval()}
    check_calibration()

    tracing = args.trace == 1
    min_batches = 3 if args.quick else 2
    seconds = 0.0 if args.quick else float(args.seconds)
    repeats = 1 if args.quick or tracing else SETUP_REPEATS
    workload, setups = set_up(WORKLOADS[args.workload], args.seed,
                              args.quick, repeats)

    # Virtual time is a float sum, so it is read over one batch at a
    # fixed place in the run; the integer counters span every batch.
    counters = Counters(workload)
    measured = [workload.run_batch()]
    vtime_s = counters.delta()["vtime_s"]
    budget_rows = None
    if not tracing:
        measured += measure(workload, seconds, min_batches - 1)
        metrics = end_to_end(workload, measured, setups)
    else:
        measured += measure(workload, seconds * UNTRACED_SHARE,
                            min_batches - 1)
        traced, metrics, budget_rows = traced_phase(
            workload, measured, seconds * TRACED_SHARE, min_batches,
            args.trace_out)
        measured = measured + traced

    attempted = sum(b.ops for b in measured)
    failed = min(attempted, sum(b.failed for b in measured)
                 + workload.final_failed())
    counts = count_metrics(workload, counters.delta(), attempted)
    counts["instrument.vtime_us_per_op"] = \
        vtime_s * 1e6 / workload.ops_per_batch
    if not failed:
        check_identity(workload, counts)
    if tracing:
        metrics.update({k: {"value": v, "n": 1} for k, v in counts.items()})
        if args.probes:
            metrics.update({k: {"value": v, "n": probes.REPEATS}
                            for k, v in probes.run_probes(args.quick).items()})

    # BENCHMARK.json is the one place that declares names and units.
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if tracing else "end_to_end"]
             if args.probes or ".probe" not in m["name"]}
    if set(units) != set(metrics):
        sys.exit("perfbench: emitted metrics differ from BENCHMARK.json: "
                 f"{sorted(set(units) ^ set(metrics))}")
    metrics = {name: {**metrics[name], "unit": unit,
                      "kind": "charged" if name in CHARGED else "measured"}
               for name, unit in units.items()}
    env["loadavg_end"] = loadavg()
    report(workload, args, metrics, budget_rows, len(measured), attempted,
           failed, env)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    """Parse the contract's arguments and run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="3 small batches per phase; a smoke test, "
                        "not a measurement")
    parser.add_argument("--probes", type=int, choices=(0, 1), default=1,
                        help="0 leaves the probes out of a traced run")
    parser.add_argument("--detail", help="also write the full result "
                        "(spreads, environment, budget) to this file")
    parser.add_argument("--trace-out", help="write the kept spans of a "
                        "traced run here as Chrome trace-event JSON")
    return run(parser.parse_args(argv), spec)


if __name__ == "__main__":
    sys.exit(main())
