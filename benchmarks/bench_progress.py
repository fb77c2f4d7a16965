"""Background progress engine benchmark (emits BENCH_progress.json).

Two measurements, following the "MPI Progress For All" framing of
strong vs weak progress:

* **Overlap ratio** — a 2-rank overlap mini-app: rank 0 posts an
  ``iallreduce`` and then *computes* (a real sleep) before waiting;
  rank 1 posts its half immediately and times its blocking ``wait``.
  Without an engine the collective's schedule only advances when a
  rank calls into MPI, so rank 1 waits out rank 0's entire compute
  phase (weak progress).  With ``BuildConfig(progress=...)`` the
  engine's continuations chain the schedule forward in the
  background and rank 1's blocking-wait share collapses.  The
  headline number is ``blocked_wait_s / overlapped_wait_s`` per
  engine mode (acceptance floor: >= 3x).
* **Zero-poll completion** — both ranks post an NBC allreduce plus a
  rendezvous-sized Isend/Irecv pair, then make *no* MPI call while
  the wall clock runs; the engine must retire all three requests
  (parked-lane drain for the rendezvous completion, continuation
  chain for the NBC) before the first ``wait``.  The engine's own
  counters are reported as evidence.

Run standalone (writes ``BENCH_progress.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_progress.py [--quick]

or through pytest (same JSON, plus assertions)::

    pytest benchmarks/bench_progress.py -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.config import BuildConfig
from repro.mpi import reduceops
from repro.runtime.world import World

#: Rank 0's compute phase (real seconds) in the overlap mini-app.
SLEEP_S = 0.4
#: Overlap repetitions (median taken) in the full run.
N_REPS = 3
#: Engine modes measured against the progress=None baseline.
MODES = ("thread", "per-vci")
#: Rendezvous-sized payload for the zero-poll exchange (1 MiB).
RENDEZVOUS_DOUBLES = 1 << 17
_OUT = Path(__file__).resolve().parent.parent / "BENCH_progress.json"


def run_overlap_once(progress, sleep_s: float = SLEEP_S) -> float:
    """One overlap mini-app run; returns rank 1's blocking-wait time.

    Rank 0 posts, computes for *sleep_s*, then waits; rank 1 posts and
    waits immediately.  The returned wall time is how long rank 1's
    ``wait`` blocked — the quantity background progress shrinks.
    """
    config = BuildConfig(progress=progress)

    def fn(comm):
        """Post the collective; rank 0 computes, rank 1 times its wait."""
        if comm.rank == 0:
            req = comm.iallreduce(1.0, op=reduceops.SUM)
            time.sleep(sleep_s)
            req.wait()
            return 0.0
        req = comm.iallreduce(2.0, op=reduceops.SUM)
        t0 = time.monotonic()
        req.wait()
        elapsed = time.monotonic() - t0
        assert req.result == 3.0
        return elapsed

    return World(2, config).run(fn)[1]


def measure_overlap(sleep_s: float = SLEEP_S, reps: int = N_REPS) -> dict:
    """Blocked-vs-overlapped wait comparison across engine modes."""

    def median_wait(progress):
        waits = sorted(run_overlap_once(progress, sleep_s)
                       for _ in range(reps))
        return waits[len(waits) // 2]

    blocked = median_wait(None)
    rows = {"sleep_s": sleep_s, "reps": reps,
            "blocked_wait_s": round(blocked, 4), "modes": {}}
    for mode in MODES:
        overlapped = median_wait(mode)
        rows["modes"][mode] = {
            "overlapped_wait_s": round(overlapped, 4),
            "ratio": round(blocked / max(overlapped, 1e-9), 1),
        }
    return rows


def run_zero_poll(progress: str = "thread", num_vcis: int = 1) -> dict:
    """Post NBC + rendezvous pair, stop calling MPI, check completion.

    Returns per-rank evidence: whether every request was already
    complete at the first post-compute poll, plus the engine counters
    showing *who* completed them (parked-lane drains for the
    rendezvous send, continuation dispatches for the NBC schedule).
    """
    config = BuildConfig(progress=progress, num_vcis=num_vcis)

    def fn(comm):
        """Both ranks: post three requests, sleep, then inspect."""
        peer = 1 - comm.rank
        nbc = comm.iallreduce(float(comm.rank), op=reduceops.SUM)
        big = np.zeros(RENDEZVOUS_DOUBLES)
        sreq = comm.Isend(big, dest=peer, tag=11)
        rreq = comm.Irecv(np.empty(RENDEZVOUS_DOUBLES), source=peer,
                          tag=11)
        time.sleep(0.3)
        complete_before_wait = all(
            r.is_complete() for r in (nbc, sreq, rreq))
        nbc.wait(), sreq.wait(), rreq.wait()
        assert nbc.result == 1.0
        return complete_before_wait, comm.proc.hooks.progress.stats()

    results = World(2, config).run(fn)
    return {
        "mode": progress,
        "num_vcis": num_vcis,
        "complete_before_wait": [done for done, _ in results],
        "engine_stats": [stats for _, stats in results],
    }


def run_benchmark(quick: bool = False) -> dict:
    """Run both measurements; returns (and writes) the JSON artifact."""
    sleep_s = 0.25 if quick else SLEEP_S
    reps = 1 if quick else N_REPS
    result = {
        "benchmark": "progress",
        "overlap": measure_overlap(sleep_s, reps),
        "zero_poll": [run_zero_poll("thread", num_vcis=1),
                      run_zero_poll("per-vci", num_vcis=4)],
    }
    if not quick:   # the quick CI smoke must not clobber the artifact
        _OUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_progress_overlap(print_artifact):
    """Acceptance: every engine mode shrinks the blocking wait >= 3x,
    and the zero-poll exchange completes entirely in the background."""
    result = run_benchmark()
    print_artifact("Background progress engine (BENCH_progress.json)",
                   json.dumps(result, indent=2))
    for mode, row in result["overlap"]["modes"].items():
        assert row["ratio"] >= 3.0, mode
    for zp in result["zero_poll"]:
        assert all(zp["complete_before_wait"]), zp["mode"]
        for stats in zp["engine_stats"]:
            assert stats["n_lane_drained"] >= 1
            assert stats["n_continuations"] >= 1
    assert _OUT.exists()


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="single rep + shorter compute phase")
    print(json.dumps(run_benchmark(quick=parser.parse_args().quick),
                     indent=2))
