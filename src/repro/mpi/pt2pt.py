"""MPI-layer point-to-point machinery: validation, entry charging.

This module is the paper's "MPI layer" for sends/receives: the
function-call overhead, the (optional) error checking, and the
(optional) thread-safety gate all live here, each charging its Table 1
cost only when the build actually performs it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.consts import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB
from repro.core.ops import CallPlan
from repro.datatypes.pack import Buffer
from repro.datatypes.predefined import BYTE, from_numpy_dtype
from repro.datatypes.usage import (NDARRAY_REFS, DatatypeRef, classify,
                                   compile_time)
from repro.errors import (
    MPIError,
    MPIErrBuffer,
    MPIErrComm,
    MPIErrCount,
    MPIErrDatatype,
    MPIErrRank,
    MPIErrTag,
)
from repro.instrument.categories import Category
from repro.instrument.costs import ErrorCheckCosts
from repro.instrument.fastpath import fastpath
from repro.instrument.plan import fuse

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator
    from repro.runtime.proc import Proc

#: Reference used for the internal byte-stream sends of collectives
#: and the pickled-object API (a Class-2 compile-time-constant usage).
BYTE_REF = compile_time(BYTE)


@fastpath
def _charge_entry(proc: "Proc", function_call_cost: int,
                  thread_check_cost: int) -> None:
    """What entering one MPI call charges: the function-call prologue
    (unless inlined away by ipo) and the thread-safety check (unless a
    single-threaded build)."""
    if not proc.config.ipo:
        proc.charge(Category.FUNCTION_CALL, function_call_cost)
    if proc.config.thread_safety:
        proc.charge(Category.THREAD_SAFETY, thread_check_cost)


def entry_plan(proc: "Proc", function_call_cost: int,
               thread_check_cost: int) -> CallPlan:
    """The call plan of an entry that resolves nothing beyond itself:
    its own charge and the lock of the modeled critical section.
    Object sends and init calls enter with it, and so does every call
    that leaves the straight line (a failing check, MPI_PROC_NULL)."""
    key = (function_call_cost, thread_check_cost)
    plan = proc._call_plans.get(key)
    if plan is None:
        plan = CallPlan()
        plan.entry = proc.plan(("entry", function_call_cost,
                                thread_check_cost), _charge_entry,
                               function_call_cost, thread_check_cost)
        if proc.config.thread_safety:
            plan.lock = proc.cs_lock
        proc._call_plans[key] = plan   # published complete: no lock
    return plan


def call_plan(proc: "Proc", function_call_cost: int, thread_check_cost: int,
              err: ErrorCheckCosts, plan: CallPlan) -> CallPlan:
    """Complete the device-resolved *plan* with the MPI layer's share:
    the entry's charge and lock, the argument checks' charge, and the
    three layers fused — steps concatenated in path order, so one
    replay advances the counter and the clock exactly as the three."""
    entry = entry_plan(proc, function_call_cost, thread_check_cost)
    plan.entry, plan.lock = entry.entry, entry.lock
    if proc.config.error_checking:
        plan.args = proc.plan(("args", err), charge_arg_checks, err)
    # One fused plan per distinct step sequence, cached on the rank
    # beside its layers: every handle with this call shape replays the
    # same object, so the counter's pending-replay table stays as
    # small as the plan cache however many communicators come and go.
    fused = fuse(plan.entry, plan.args, plan.path)
    key = ("fused", fused.steps)
    plan.fused = proc._plans.get(key)
    if plan.fused is None:
        plan.fused = proc._plans[key] = fused
    return plan


def annotate(exc: MPIError, proc: "Proc", name: Optional[str]) -> None:
    """Stamp an :class:`MPIError` leaving an MPI call with the raising
    rank and the call's *name*, so error-handler callbacks and
    teardown reports can say which call on which rank failed.  Both
    entries below own this, and nothing beneath them does."""
    if exc.rank is None:
        exc.rank = proc.world_rank
    if exc.op is None and name is not None:
        exc.op = name


@fastpath
def run_planned(proc: "Proc", plan: CallPlan, name: str, body, op):
    """The whole entry of a call whose site is already planned: replay
    *plan*'s fused charge — entry, argument checks and device path in
    one ``Proc.charge``, after which ``body(op)`` charges nothing more
    (``op.plan`` says so) — and run the body inside the modeled
    critical section.

    Callers come here only with arguments that passed their checks,
    the call site's *plan* (cached, or compiled by this first use) and
    a rank that is not ``proc.armed``: fusing needs nothing to observe
    the call between its layers.  Everything else — armed builds,
    failing checks, MPI_PROC_NULL, init calls — enters stepwise
    through :class:`mpi_entry`.  Charged instruction counts are
    identical either way."""
    op.plan = plan
    proc.charge(plan.fused)
    lock = plan.lock
    if lock is not None:
        lock.acquire()  # audit: allow[FP203] - the modeled CS
    try:  # audit: allow[FP204] - releases the CS, annotates on the way out
        return body(op)
    except MPIError as exc:
        annotate(exc, proc, name)
        raise
    finally:
        if lock is not None:
            lock.release()


class mpi_entry:
    """One MPI API entry taken stepwise, as a context: the entry
    charge — function-call prologue (unless inlined away by ipo) and
    thread-safety check (unless a single-threaded build) — then the
    modeled critical section around the body, which charges its own
    argument checks and device path.  A planned call on an unarmed
    rank never builds one: see :func:`run_planned`.

    *plan* supplies the entry's charge and lock (an
    :func:`entry_plan`, or the call site's own plan).  A rank with a
    hook seam announces the call entry under *name* (the sanitizer
    labels the call, the fault layer checks this rank, an enabled
    timeline records the call's virtual-time span), and *vci* routes
    the modeled CS —
    a routed entry acquires its owning VCI's lock (per-VCI sharding,
    ``num_vcis > 1``) and records CS occupancy there; unrouted entries
    take ``proc.cs_lock``, which is VCI 0's lock.

    Every :class:`MPIError` leaving the body is annotated
    (:func:`annotate`).
    """

    __slots__ = ("proc", "plan", "name", "vci", "t0", "cs0")

    def __init__(self, proc: "Proc", plan: CallPlan,
                 name: Optional[str] = None, vci=None):
        self.proc = proc
        self.plan = plan
        self.name = name
        self.vci = vci

    @fastpath
    def __enter__(self) -> None:
        proc, plan = self.proc, self.plan
        hooks = proc.hooks
        # Call entry: a timeline's span start (returned), the
        # sanitizer's call label, the fault layer's rank check.
        self.t0 = None if hooks is None else hooks.enter_call(self.name)
        proc.charge(plan.entry)
        if plan.lock is not None:
            vci = self.vci
            if vci is None:
                plan.lock.acquire()  # audit: allow[FP203] - the modeled CS
            else:
                vci.lock.acquire()  # audit: allow[FP203] - the modeled CS
                self.cs0 = proc.counter.total

    def __exit__(self, exc_type, exc, traceback) -> bool:
        proc, vci = self.proc, self.vci
        if self.plan.lock is not None:
            if vci is None:
                self.plan.lock.release()
            else:
                if exc_type is None:
                    vci.note_cs(proc.counter.total - self.cs0)
                vci.lock.release()
        if exc_type is not None and isinstance(exc, MPIError):
            annotate(exc, proc, self.name)
        if self.t0 is not None:
            proc.hooks.exit_call(self.name, self.t0)
        return False


# ---------------------------------------------------------------------------
# buffer normalization
# ---------------------------------------------------------------------------

BufArg = Union[np.ndarray, tuple]

def normalize_buffer(arg: BufArg) -> tuple[Buffer, int, DatatypeRef]:
    """Normalize a user buffer argument.

    Accepted forms (mpi4py-flavoured):

    * a numpy array — count and datatype inferred (Class-2 usage);
    * ``(buf, count, datatype_or_ref)`` — explicit triple, where the
      datatype slot takes a :class:`Datatype` or a classified
      :class:`DatatypeRef` (Class-3 / derived usage).
    * ``(buf, datatype_or_ref)`` — count inferred from the buffer.
    """
    if isinstance(arg, np.ndarray):
        return arg, arg.size, (
            NDARRAY_REFS.get(arg.dtype)   # else: a non-native byte order
            or compile_time(from_numpy_dtype(arg.dtype)))
    if isinstance(arg, tuple):
        if len(arg) == 3:
            buf, count, dt = arg
            return buf, count, classify(dt)
        if len(arg) == 2:
            buf, dt = arg
            dtref = classify(dt)
            nbytes = _buffer_nbytes(buf)
            if nbytes % dtref.datatype.extent:
                raise MPIErrBuffer(
                    f"buffer of {nbytes} bytes is not a whole number of "
                    f"{dtref.datatype.name} extents")
            return buf, nbytes // dtref.datatype.extent, dtref
    raise MPIErrBuffer(
        "buffer argument must be a numpy array or a (buf, count, datatype) "
        f"tuple, got {type(arg).__name__}")


def _buffer_nbytes(buf: Buffer) -> int:
    if isinstance(buf, np.ndarray):
        return buf.nbytes
    if isinstance(buf, (bytes, bytearray, memoryview)):
        return len(buf)
    raise MPIErrBuffer(f"unsupported buffer type {type(buf).__name__}")


# ---------------------------------------------------------------------------
# error checking (Table 1 row 1 — removable, hence behind the config flag)
# ---------------------------------------------------------------------------

@fastpath
def charge_arg_checks(proc: "Proc", err: ErrorCheckCosts,
                      checks: int = 4) -> None:
    """Charge the first *checks* steps of Table 1's error-checking
    decomposition: all four when every argument is valid, the prefix
    up to and including the failing check otherwise."""
    proc.charge(Category.ERROR_CHECKING, err.args_basic)
    if checks >= 2:
        proc.charge(Category.ERROR_CHECKING, err.datatype_committed)
    if checks >= 3:
        proc.charge(Category.ERROR_CHECKING, err.object_valid)
    if checks >= 4:
        proc.charge(Category.ERROR_CHECKING, err.rank_range)


@fastpath
def validate_args(proc: "Proc", err: ErrorCheckCosts,
                  failed: Optional[tuple[int, MPIError]]) -> None:
    """Charge one call's argument validation and raise its verdict:
    *failed* is ``(checks run up to the failing one, its error)``, or
    None when all four passed (charged as one compiled plan)."""
    if failed is None:
        proc.charge(proc.plan(("args", err), charge_arg_checks, err))
        return
    charge_arg_checks(proc, err, failed[0])
    raise failed[1]


def check_send(comm: "Communicator", buf: Optional[Buffer], count: int,
               dtref: DatatypeRef, dest: int, tag: int,
               global_rank: bool = False
               ) -> Optional[tuple[int, MPIError]]:
    """Send-side argument validation, in the order of Table 1's
    error-checking decomposition: None when every argument is valid,
    else :func:`validate_args`' *failed*.  Charges nothing."""
    if count < 0:
        return 1, MPIErrCount(f"count must be >= 0, got {count}")
    if not 0 <= tag <= TAG_UB:
        return 1, MPIErrTag(f"tag must be in [0, {TAG_UB}], got {tag}")
    if buf is None and count > 0:
        return 1, MPIErrBuffer("NULL buffer with nonzero count")
    if not dtref.datatype.committed:
        return 2, MPIErrDatatype(
            f"datatype {dtref.datatype.name} used before commit")
    if comm.freed:
        return 3, MPIErrComm("operation on a freed communicator")
    if dest != PROC_NULL:
        limit = comm.world_size if global_rank else comm.size
        if not 0 <= dest < limit:
            return 4, MPIErrRank(
                f"destination {dest} outside [0, {limit}) "
                f"({'world' if global_rank else 'communicator'} ranks)")
    return None


def check_recv(comm: "Communicator", count: int, dtref: DatatypeRef,
               source: int, tag: int) -> Optional[tuple[int, MPIError]]:
    """Receive-side twin of :func:`check_send`."""
    if count < 0:
        return 1, MPIErrCount(f"count must be >= 0, got {count}")
    if tag != ANY_TAG and not 0 <= tag <= TAG_UB:
        return 1, MPIErrTag(
            f"tag must be ANY_TAG or in [0, {TAG_UB}], got {tag}")
    if not dtref.datatype.committed:
        return 2, MPIErrDatatype(
            f"datatype {dtref.datatype.name} used before commit")
    if comm.freed:
        return 3, MPIErrComm("operation on a freed communicator")
    if source not in (ANY_SOURCE, PROC_NULL) \
            and not 0 <= source < comm.size:
        return 4, MPIErrRank(
            f"source {source} outside [0, {comm.size}) and not a wildcard")
    return None
