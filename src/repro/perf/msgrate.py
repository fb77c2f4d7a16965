"""The message-rate microbenchmark (paper Section 4.2).

"The benchmark is designed to demonstrate the maximum rate at which a
single core can inject data into the network.  All performance numbers
are shown for a single byte of data transfer."

Two measurement modes:

* **modeled** — run the real runtime once to *measure* the per-call
  instruction count under a build/extension configuration, then
  convert to messages/second through the fabric model
  (``rate = clock / (instructions * CPI + inject_cycles)``).  This is
  the mode that regenerates Figures 3–6.
* **wall-clock** — :func:`pump_messages` drives N sends through the
  runtime and reports real elapsed time; pytest-benchmark wraps it.
  Build ordering (original < default < no-err < ... < ipo) holds there
  too because disabled features skip real Python work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core import extensions as ext
from repro.core.config import BuildConfig, named_builds
from repro.datatypes.predefined import BYTE
from repro.fabric.model import FabricSpec, fabric_by_name
from repro.mpi.rma import Window
from repro.runtime.world import World

#: Payload of the paper's microbenchmark.
PAYLOAD_BYTES = 1

#: Figure 6's cumulative extension chain, bottom bar to top bar.  The
#: ``glob_rank`` step includes the precreated-communicator handling
#: (§3.3): the paper designs the proposals "to work together" and the
#: figure's final bar reaches the §3.7 combined 16-instruction path.
EXTENSION_CHAIN: Sequence[tuple[str, ext.ExtFlags]] = (
    ("minimal_pt2pt", ext.NONE),
    ("no_req", ext.NOREQ),
    ("no_match", ext.NOREQ | ext.NOMATCH),
    ("glob_rank", ext.NOREQ | ext.NOMATCH | ext.GLOBAL_RANK
     | ext.STATIC_COMM),
    ("no_proc_null", ext.ALL_OPTS_PT2PT),
)


@dataclass(frozen=True)
class MsgRateResult:
    """One bar of a message-rate figure."""

    label: str
    op: str
    instructions: int
    rate_msgs_per_s: float

    @property
    def rate_millions(self) -> float:
        """Rate in millions of messages per second (figure axis units)."""
        return self.rate_msgs_per_s / 1e6


# ---------------------------------------------------------------------------
# instruction measurement (one traced call on the real runtime)
# ---------------------------------------------------------------------------

def _trace_isend(comm, flags: ext.ExtFlags):
    buf = np.zeros(PAYLOAD_BYTES, dtype=np.uint8)
    proc = comm.proc
    if comm.rank == 0:
        with proc.tracer.call("MPI_Isend"):
            req = comm._buffer_send((buf, PAYLOAD_BYTES, BYTE), 1, 0,
                                    sync=False, flags=flags)
        if req is not None:
            req.wait()
        else:
            comm.waitall_noreq()
        return proc.tracer.last("MPI_Isend")
    if flags.nomatch:
        comm.recv_nomatch((buf, PAYLOAD_BYTES, BYTE))
    else:
        comm.Recv((buf, PAYLOAD_BYTES, BYTE), source=0, tag=0)
    return None


def _trace_put(comm, flags: ext.ExtFlags):
    arr = np.zeros(64, dtype=np.uint8)
    win = Window.create(comm, arr, disp_unit=1)
    # Open a fence epoch before tracing: the access itself must be
    # MPI-legal, and the tracer window excludes the fence's charges.
    win.fence()
    proc = comm.proc
    total = None
    if comm.rank == 0:
        src = np.ones(PAYLOAD_BYTES, dtype=np.uint8)
        disp = win.remote_addr(1, 0) if flags.virtual_addr else 0
        with proc.tracer.call("MPI_Put"):
            win.put((src, PAYLOAD_BYTES, BYTE), target_rank=1,
                    target_disp=disp, flags=flags)
        total = proc.tracer.last("MPI_Put")
    win.fence()
    return total


def measure_call_record(config: BuildConfig, op: str,
                        flags: ext.ExtFlags = ext.NONE):
    """Run one traced *op* ("isend" or "put") on a fresh 2-rank world
    under *config*; return its full per-category
    :class:`~repro.instrument.trace.CallRecord`."""
    world = World(2, config)
    if op == "isend":
        results = world.run(_trace_isend, args=(flags,))
    elif op == "put":
        results = world.run(_trace_put, args=(flags,))
    else:
        raise ValueError(f"op must be 'isend' or 'put', got {op!r}")
    return results[0]


def measure_instructions(config: BuildConfig, op: str,
                         flags: ext.ExtFlags = ext.NONE) -> int:
    """Run one traced *op* ("isend" or "put") on a fresh 2-rank world
    under *config*; return its instruction count."""
    return measure_call_record(config, op, flags).total


def measure_cs_instructions(config: BuildConfig, op: str = "isend",
                            flags: ext.ExtFlags = ext.NONE
                            ) -> tuple[int, int]:
    """``(total, cs)`` instruction counts of one traced *op*.

    ``cs`` is the portion resident in the modeled critical section:
    everything except the FUNCTION_CALL prologue and the THREAD_SAFETY
    gate, both charged before the per-VCI lock is taken in
    :func:`repro.mpi.pt2pt.run_call`.  It is the per-message CS
    occupancy that serializes injector threads sharing a VCI."""
    from repro.instrument.categories import Category
    rec = measure_call_record(config, op, flags)
    cs = (rec.total - rec.category(Category.FUNCTION_CALL)
          - rec.category(Category.THREAD_SAFETY))
    return rec.total, cs


# ---------------------------------------------------------------------------
# modeled rates (Figures 3-6)
# ---------------------------------------------------------------------------

def modeled_rate(config: BuildConfig, op: str,
                 fabric: Optional[FabricSpec] = None,
                 flags: ext.ExtFlags = ext.NONE,
                 label: Optional[str] = None) -> MsgRateResult:
    """Measure the op's instruction count and convert to a single-core
    injection rate on *fabric* (default: the config's fabric)."""
    spec = fabric if fabric is not None else fabric_by_name(config.fabric)
    instructions = measure_instructions(config, op, flags)
    return MsgRateResult(
        label=label if label is not None else config.label(),
        op=op,
        instructions=instructions,
        rate_msgs_per_s=spec.message_rate(instructions, PAYLOAD_BYTES),
    )


def rate_sweep(fabric_name: str,
               ops: Sequence[str] = ("isend", "put"),
               include_ipo: bool = True) -> list[MsgRateResult]:
    """All build bars of one message-rate figure (Figures 3, 4, 5).

    Figure 4 (UCX) omits the ipo bar — pass ``include_ipo=False``.
    """
    results: list[MsgRateResult] = []
    for label, config in named_builds(fabric=fabric_name).items():
        if not include_ipo and "ipo" in label:
            continue
        for op in ops:
            results.append(modeled_rate(config, op, label=label))
    return results


def extension_chain_rates(fabric_name: str = "infinite"
                          ) -> list[MsgRateResult]:
    """Figure 6: cumulative extension rates for MPI_ISEND on the
    infinitely fast network, ipo build."""
    config = BuildConfig.ipo_build(fabric=fabric_name)
    spec = fabric_by_name(fabric_name)
    return [modeled_rate(config, "isend", fabric=spec, flags=flags,
                         label=label)
            for label, flags in EXTENSION_CHAIN]


# ---------------------------------------------------------------------------
# wall-clock pumping (pytest-benchmark mode)
# ---------------------------------------------------------------------------

def pump_messages(world: World, n_messages: int,
                  flags: ext.ExtFlags = ext.NONE,
                  nthreads: int = 1,
                  tag_of: Optional[Callable[[int], int]] = None) -> float:
    """Drive 1-byte sends rank0 -> rank1 through the real runtime;
    returns rank 0's virtual time spent.  Wall time is what the
    caller's benchmark harness measures around this call.

    With ``nthreads > 1``, rank 0 runs that many concurrent injector
    threads, each sending *n_messages* on its own tag (``tag_of(t)``,
    default the thread index) while rank 1 drains with one receiver
    thread per tag — the MPI_THREAD_MULTIPLE shape whose per-rank
    critical section the multi-VCI build shards.  Virtual time is then
    approximate (the per-rank clock is advanced from several threads);
    use the occupancy model (:func:`modeled_threaded_rate`) for rate
    numbers and this mode for correctness validation."""
    if nthreads > 1 and flags.nomatch:
        raise ValueError("threaded pumping uses per-thread tags; "
                         "the nomatch path has no tags to thread over")
    tag_of = tag_of if tag_of is not None else (lambda t: t)

    def sender_receiver(comm):
        buf = np.zeros(PAYLOAD_BYTES, dtype=np.uint8)
        if comm.rank == 0:
            t0 = comm.proc.vclock.now
            if nthreads == 1:
                for _ in range(n_messages):
                    req = comm._buffer_send((buf, PAYLOAD_BYTES, BYTE),
                                            1, 0, sync=False, flags=flags)
                    if req is not None:
                        req.wait()
            else:
                def inject(tid: int) -> None:
                    tbuf = np.zeros(PAYLOAD_BYTES, dtype=np.uint8)
                    for _ in range(n_messages):
                        req = comm._buffer_send(
                            (tbuf, PAYLOAD_BYTES, BYTE), 1, tag_of(tid),
                            sync=False, flags=flags)
                        if req is not None:
                            req.wait()
                workers = [threading.Thread(target=inject, args=(t,),
                                            name=f"injector-{t}")
                           for t in range(nthreads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
            if flags.noreq:
                comm.waitall_noreq()
            return comm.proc.vclock.now - t0
        if flags.nomatch:
            for _ in range(n_messages):
                comm.recv_nomatch((buf, PAYLOAD_BYTES, BYTE))
        elif nthreads == 1:
            for _ in range(n_messages):
                comm.Recv((buf, PAYLOAD_BYTES, BYTE), source=0, tag=0)
        else:
            def drain(tid: int) -> None:
                tbuf = np.zeros(PAYLOAD_BYTES, dtype=np.uint8)
                for _ in range(n_messages):
                    comm.Recv((tbuf, PAYLOAD_BYTES, BYTE), source=0,
                              tag=tag_of(tid))
            workers = [threading.Thread(target=drain, args=(t,),
                                        name=f"receiver-{t}")
                       for t in range(nthreads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        return None

    return world.run(sender_receiver)[0]


# ---------------------------------------------------------------------------
# multi-VCI occupancy model (BENCH_vci.json rates)
# ---------------------------------------------------------------------------

def modeled_threaded_rate(spec: FabricSpec, instructions_total: int,
                          instructions_cs: int,
                          vci_of_thread: Sequence[int]) -> float:
    """Aggregate message rate of concurrent injector threads under
    per-VCI sharding, in messages/second.

    Each thread repeatedly issues messages costing ``I =
    instructions_total`` instructions, of which ``C =
    instructions_cs`` (plus the fabric injection, which happens inside
    the device call) execute inside the owning VCI's critical section.
    Threads on different VCIs overlap fully; threads sharing a VCI
    serialize their CS portions.  The steady-state per-message slot is

        slot = max( I*CPI/clock + inject,          per-thread work
                    max_v n_v * (C*CPI/clock + inject) )

    where ``n_v`` counts the threads :func:`VCIMap`-routed to VCI
    ``v``; the aggregate rate is ``nthreads / slot``.  With every
    thread on one VCI (``num_vcis=1``) the CS term dominates and the
    rate pins at the single-lock ceiling ``1 / cs_seconds`` — the
    paper's per-rank critical-section limit; spreading threads across
    VCIs recovers ``nthreads / per_thread_seconds``."""
    nthreads = len(vci_of_thread)
    if nthreads == 0:
        raise ValueError("need at least one injector thread")
    per_thread_s = spec.cycles_to_seconds(
        spec.sw_cycles(instructions_total) + spec.inject_cycles)
    cs_s = spec.cycles_to_seconds(
        spec.sw_cycles(instructions_cs) + spec.inject_cycles)
    loads: dict[int, int] = {}
    for v in vci_of_thread:
        loads[v] = loads.get(v, 0) + 1
    slot = max(per_thread_s, max(loads.values()) * cs_s)
    if slot <= 0:
        return float("inf")
    return nthreads / slot

