"""Fault-tolerant transport overhead benchmark (emits BENCH_fault.json).

Two measurements, in the spirit of the paper's Figure 2 attribution:

* **Standing tax** — the per-call ``RELIABILITY`` instruction overhead
  of a fault-tolerant build on a *perfect* wire, per path (two-sided
  ``isend`` vs one-sided ``put``), measured with the same
  charge-through instrumentation as the calibrated 221/215 baselines.
  Reliability is a protocol property, not a failure-time one: sequence
  numbers, checksums, and ack piggybacking are paid on every message
  even when nothing is ever lost.
* **Failure-time cost** — a retransmit-vs-loss-rate sweep on a 2-rank
  lossy world: the same message stream is pushed through fabrics with
  increasing drop probability and the protocol's counters (retransmit
  attempts, duplicate drops, out-of-order buffering) are reported,
  together with the delivered-intact check that makes the overhead
  meaningful.

Run standalone (writes ``BENCH_fault.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_fault.py [--quick]

or through pytest (same JSON, plus assertions)::

    pytest benchmarks/bench_fault.py -s
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import BuildConfig
from repro.ft import FaultPlan
from repro.perf.msgrate import measure_call_record
from repro.runtime.world import World

#: Wire drop probabilities of the failure-time sweep.
DROP_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)
#: Messages pushed through each lossy fabric.
N_MSGS = 200
#: Seed for every lossy plan (fates are pure functions of it).
SEED = 7
_OUT = Path(__file__).resolve().parent.parent / "BENCH_fault.json"


def measure_standing_tax() -> dict:
    """Per-path instruction overhead of the protocol on a perfect wire.

    Returns one row per path with the plain-build total, the
    fault-build total, and the ``RELIABILITY`` attribution that makes
    up the difference.
    """
    rows = {}
    for op in ("isend", "put"):
        plain = measure_call_record(BuildConfig(fault_plan=None), op)
        ft = measure_call_record(BuildConfig(fault_plan=FaultPlan()), op)
        ft_cats = {c.name: n for c, n in ft.by_category.items() if n}
        rows[op] = {
            "plain_total": plain.total,
            "ft_total": ft.total,
            "reliability": ft_cats.get("RELIABILITY", 0),
            "overhead_pct": round(100.0 * (ft.total - plain.total)
                                  / plain.total, 1),
            "ft_by_category": ft_cats,
        }
    return rows


def run_lossy_stream(drop_rate: float, nmsgs: int = N_MSGS) -> dict:
    """Push *nmsgs* messages 0 -> 1 over a wire losing *drop_rate* of
    the attempts; returns the protocol counters plus the intact check."""
    plan = FaultPlan(seed=SEED, drop_rate=drop_rate,
                     duplicate_rate=0.05, reorder_rate=0.05)
    stats = {}

    def fn(comm):
        """Sender floods, receiver drains; both snapshot counters."""
        if comm.rank == 0:
            for i in range(nmsgs):
                comm.send(i, dest=1)
            got = None
        else:
            got = [comm.recv(source=0) for _ in range(nmsgs)]
        comm.barrier()
        stats[comm.rank] = comm.proc.hooks.faults.stats()
        return got

    results = World(2, BuildConfig(fault_plan=plan)).run(fn)
    sender, receiver = stats[0], stats[1]
    return {
        "drop_rate": drop_rate,
        "n_msgs": nmsgs,
        "delivered_intact": results[1] == list(range(nmsgs)),
        "n_retransmits": sender["n_retransmits"],
        "retransmits_per_msg": round(sender["n_retransmits"] / nmsgs, 3),
        "n_dup_dropped": receiver["n_dup_dropped"],
        "n_ooo_buffered": receiver["n_ooo_buffered"],
    }


def run_benchmark(quick: bool = False) -> dict:
    """Run both measurements; returns (and writes) the JSON artifact."""
    rates = (0.0, 0.2) if quick else DROP_RATES
    nmsgs = 40 if quick else N_MSGS
    sweep = [run_lossy_stream(rate, nmsgs) for rate in rates]
    result = {
        "benchmark": "fault",
        "standing_tax": measure_standing_tax(),
        "sweep_seed": SEED,
        "retransmit_sweep": sweep,
    }
    if not quick:   # the quick CI smoke must not clobber the artifact
        _OUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_fault_tolerance_overhead(print_artifact):
    """Acceptance: the standing tax is exactly the calibrated
    RELIABILITY attribution per path, every lossy stream still delivers
    intact, and retransmission work grows with the loss rate."""
    result = run_benchmark()
    print_artifact("Fault-tolerant transport (BENCH_fault.json)",
                   json.dumps(result, indent=2))
    tax = result["standing_tax"]
    assert tax["isend"]["reliability"] == 43
    assert tax["isend"]["ft_total"] == 221 + 43
    assert tax["put"]["reliability"] == 34
    assert tax["put"]["ft_total"] == 215 + 34
    sweep = result["retransmit_sweep"]
    assert all(row["delivered_intact"] for row in sweep)
    assert sweep[0]["n_retransmits"] == 0          # lossless wire
    assert sweep[-1]["n_retransmits"] > sweep[1]["n_retransmits"]
    assert _OUT.exists()


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="two drop rates + short streams")
    print(json.dumps(run_benchmark(quick=parser.parse_args().quick),
                     indent=2))
