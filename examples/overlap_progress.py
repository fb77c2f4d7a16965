#!/usr/bin/env python
"""Background progress: overlap without polling.

The companion to ``examples/overlap_nbc.py``, which overlaps a
nonblocking collective with compute but must *poll* (``req.test()``)
to drive the schedule forward — weak progress, where communication
only advances inside MPI calls.  This example builds the world with
``BuildConfig(progress="thread")`` instead: a background engine
thread drains parked rendezvous completions and chains NBC
continuations, so every request completes while the application is
busy computing and never calls into MPI at all — strong progress, in
the MPIX-continuations style.

    python examples/overlap_progress.py
"""

import time

import numpy as np

from repro import BuildConfig, World
from repro.mpi import reduceops


def main(comm):
    peer = (comm.rank + 1) % comm.size

    # Post everything up front: an NBC allreduce plus a
    # rendezvous-sized exchange (1 MiB, well past the eager cutoff).
    nbc = comm.iallreduce(float(comm.rank + 1), op=reduceops.SUM)
    payload = np.full(1 << 17, float(comm.rank))
    sreq = comm.Isend(payload, dest=peer, tag=42)
    inbox = np.empty(1 << 17)
    rreq = comm.Irecv(inbox, source=(comm.rank - 1) % comm.size, tag=42)

    # "Compute": a real sleep with zero MPI calls.  In a progress=None
    # build nothing would advance here; the engine makes it all finish.
    time.sleep(0.3)
    done_before_wait = all(r.is_complete() for r in (nbc, sreq, rreq))

    nbc.wait(), sreq.wait(), rreq.wait()
    assert nbc.result == comm.size * (comm.size + 1) / 2
    assert inbox[0] == (comm.rank - 1) % comm.size

    stats = comm.proc.hooks.progress.stats()
    if comm.rank == 0:
        return {
            "complete_before_first_wait": done_before_wait,
            "allreduce_total": nbc.result,
            "engine_lane_drains": stats["n_lane_drained"],
            "engine_continuations": stats["n_continuations"],
            "engine_wakeups": stats["n_wakeups"],
        }
    return None


if __name__ == "__main__":
    world = World(2, BuildConfig(progress="thread"))
    report = world.run(main)[0]
    for key, value in report.items():
        print(f"{key:28s} {value}")
    print("background-progress overlap OK")
