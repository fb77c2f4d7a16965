"""The calls off the straight line charge what they always charged.

Each family below runs on a fresh one-rank world of every named build
(and, for the fault and progress families, that build with the
subsystem switched on): calls to MPI_PROC_NULL, calls that raise in
the device, requestless bulk completion, a lossy fault run and a
progress engine's background work.  After each, the rank's counter
total, its per-category and per-subsystem counts and its virtual clock
(as ``float.hex``) must equal what the same program read on the
revision that still charged these calls step by step, recorded in
``data/offline_charges.json``.

The program uses only the public runtime, so it runs on any revision:
``python tests/test_offline_charges.py`` prints the table it measures.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import threading

import numpy as np
import pytest

from repro.consts import PROC_NULL
from repro.core import extensions as ext
from repro.core.config import BuildConfig, Device, named_builds
from repro.errors import MPIError
from repro.ft.plan import FaultPlan
from repro.mpi.comm import Communicator
from repro.mpi.rma import Window
from repro.runtime import World

RECORDED = pathlib.Path(__file__).parent / "data" / "offline_charges.json"
ROUNDS = 3          # the first call compiles what later calls replay
#: Retransmits, reorders and duplicates within the run's messages.
LOSSY = FaultPlan(seed=11, drop_rate=0.3, duplicate_rate=0.3,
                  reorder_rate=0.3)


def _buf(n=1):
    return np.zeros(n, np.uint8)


def _raising(call):
    """Run *call*, which may raise an MPI error (which one depends on
    the build: CH3 rejects every extension outright)."""
    try:
        call()
    except MPIError:
        pass


def isend_null(comm, release):
    for _ in range(ROUNDS):
        req = comm.Isend(_buf(), PROC_NULL, 3)
        req.wait()
        release(req)


def irecv_null(comm, release):
    for _ in range(ROUNDS):
        req = comm.Irecv(_buf(), PROC_NULL, 3)
        req.wait()
        release(req)


def sendrecv_null(comm, release):
    for _ in range(ROUNDS):
        comm.Sendrecv(_buf(), PROC_NULL, _buf(), PROC_NULL, 3, 3)


def put_null(comm, release):
    win = Window.create(comm, _buf(8), disp_unit=1)
    win.fence()
    for _ in range(ROUNDS):
        win.put(_buf(), PROC_NULL, 0)
    win.fence()


def npn_null(comm, release):
    for _ in range(ROUNDS):
        _raising(lambda: comm.isend_npn(_buf(), PROC_NULL))
        if comm.proc.config.error_checking:
            # (unchecked, an NPN receive from MPI_PROC_NULL is posted)
            _raising(lambda: comm._buffer_recv(_buf(), PROC_NULL, 0,
                                               flags=ext.NO_PROC_NULL))


def noreq_sync(comm, release):
    for _ in range(ROUNDS):
        _raising(lambda: comm._buffer_send(_buf(), 0, 0, sync=True,
                                           flags=ext.NOREQ))


def waitall_noreq(comm, release):
    for tag in range(ROUNDS):
        _raising(lambda: comm.isend_noreq(_buf(), 0, tag))
        _raising(lambda: comm.isend_noreq(_buf(), PROC_NULL, tag))
        comm.waitall_noreq()


def untranslatable(comm, release):
    """A peer outside the communicator, let through by a build that
    does not check its arguments."""
    for _ in range(ROUNDS):
        _raising(lambda: comm.Isend(_buf(), 5, 0))


def lossy(comm, release):
    """Two sends before their receives, so a reordered packet reaches
    the window out of order, and a put per round."""
    win = Window.create(comm, _buf(8), disp_unit=1)
    win.fence()
    for rnd in range(4 * ROUNDS):
        sends = [comm.Isend(_buf(), 0, 2 * rnd + i) for i in (0, 1)]
        recvs = [comm.Irecv(_buf(), 0, 2 * rnd + i) for i in (0, 1)]
        for req in sends + recvs:
            req.wait()
            release(req)
        win.put(_buf(), 0, rnd % 8)
    win.fence()
    stats = comm.proc.hooks.faults.stats()
    assert stats["n_retransmits"] and stats["n_dup_dropped"] \
        and stats["n_ooo_buffered"], stats


def progress(comm, release):
    """A rendezvous send the engine retires (a lane drain) and the
    continuation it then runs, both charged in one engine pass while
    the rank waits on an event: nothing else charges meanwhile."""
    proc = comm.proc
    nbytes = 1 << 20
    for _ in range(ROUNDS):
        ran = threading.Event()
        with proc.cs_lock:
            rreq = comm.Irecv(_buf(nbytes), 0, 4)
            sreq = comm.Isend(_buf(nbytes), 0, 4)
            sreq.on_complete(lambda req: ran.set())
        assert ran.wait(30)
        for req in (rreq, sreq):
            req.wait()
            release(req)


FAMILIES = (isend_null, irecv_null, sendrecv_null, put_null, npn_null,
            noreq_sync, waitall_noreq, untranslatable)


def cases():
    """``{name: (config, family)}``: every family on every named build;
    the lossy run with the build's fault layer on CH4 (a CH3 receive
    does not release the wire's reorder stash, so its last reordered
    packet waits for the next send); the progress run where the build
    has the thread safety an engine needs."""
    out = {}
    for label, config in named_builds().items():
        for family in FAMILIES:
            out[f"{label}/{family.__name__}"] = (config, family)
        if config.device is Device.CH4:
            out[f"{label}/lossy"] = (
                dataclasses.replace(config, fault_plan=LOSSY), lossy)
        if config.thread_safety:
            out[f"{label}/progress"] = (
                dataclasses.replace(config, progress="thread"), progress)
    return out


def measure(config: BuildConfig, family) -> list:
    """What *family* leaves on a fresh one-rank world's counter and
    clock: total, nonzero categories, nonzero subsystems, clock."""
    proc = World(1, config).proc(0)
    comm = Communicator.world_view(proc)
    family(comm, proc.request_pool.release)
    counter = proc.counter
    with proc.cs_lock:      # a progress engine charges under it
        return [counter.total,
                {c.name: n for c, n in counter.by_category.items() if n},
                {s.name: n for s, n in counter.by_subsystem.items() if n},
                proc.vclock.now.hex()]


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_charges_and_clock_are_the_recorded_ones(name):
    recorded = json.loads(RECORDED.read_text())
    assert measure(*CASES[name]) == recorded[name]


def test_every_case_is_recorded():
    assert set(json.loads(RECORDED.read_text())) == set(CASES)


if __name__ == "__main__":
    print("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(measure(*case))}"
                             for name, case in sorted(CASES.items()))
          + "\n}")
