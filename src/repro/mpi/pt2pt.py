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
from repro.ft.recovery import dispatch_comm_error
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
               thread_check_cost: int, err: ErrorCheckCosts,
               stream: Optional[tuple] = None) -> CallPlan:
    """The call plan of an entry that resolves nothing beyond itself:
    its own charge, the argument checks' (*err*: their costs; all four,
    and each failing check's prefix) and the modeled CS's lock.  Init
    calls enter with it; a call whose site has no plan (a failing
    check, a site that raises in the device) with a copy carrying its
    *stream* (:func:`call_plan`).
    """
    key = (function_call_cost, thread_check_cost, err)
    plan = proc._call_plans.get(key)
    if plan is None:
        plan = CallPlan()
        plan.entry = proc.plan(("entry", function_call_cost,
                                thread_check_cost), _charge_entry,
                               function_call_cost, thread_check_cost)
        if proc.config.error_checking:
            plan.args = proc.plan(("args", err), charge_arg_checks, err)
            # What a call whose check number k fails charges: the
            # checks up to and including it.
            plan.failing = (None, *(
                proc.plan(("args", err, k), charge_arg_checks, err, k)
                for k in (1, 2, 3, 4)))
        if proc.config.thread_safety:
            plan.lock = proc.cs_lock
        proc._call_plans[key] = plan   # published complete: no lock
    if stream is None:
        return plan
    own = CallPlan()
    own.entry, own.args, own.failing, own.lock = (plan.entry, plan.args,
                                                  plan.failing, plan.lock)
    own.stream = stream
    return own


def call_plan(proc: "Proc", function_call_cost: int, thread_check_cost: int,
              err: ErrorCheckCosts, plan: CallPlan,
              stream: tuple) -> CallPlan:
    """Complete the device-resolved *plan* with the MPI layer's share:
    the entry's charge and lock, the argument checks' charge, the
    call site's *stream* — ``(ctx, peer, nomatch)``, which with the
    op's tag names the VCI a routed entry locks — and the three layers
    fused: steps concatenated in path order, so one replay advances
    the counter and the clock exactly as the three."""
    entry = entry_plan(proc, function_call_cost, thread_check_cost, err)
    plan.entry, plan.args, plan.lock = entry.entry, entry.args, entry.lock
    plan.stream = stream
    # One fused plan per distinct step sequence, cached on the rank
    # beside its layers, however many communicators come and go.
    plan.fused = proc.interned(fuse(plan.entry, plan.args, plan.path))
    return plan


def annotate(exc: MPIError, proc: "Proc", name: Optional[str]) -> None:
    """Stamp an :class:`MPIError` leaving an MPI call with the raising
    rank and the call's *name*, so error-handler callbacks and
    teardown reports can say which call on which rank failed.  The
    entry owns this, and nothing beneath it does."""
    if exc.rank is None:
        exc.rank = proc.world_rank
    if exc.op is None and name is not None:
        exc.op = name


@fastpath
def run_call(proc: "Proc", plan: CallPlan, name: Optional[str], body, op,
             failed: Optional[tuple[int, MPIError]] = None,
             check: Optional[str] = "comm_check"):
    """The MPI entry of every call: charge *plan*, run ``body(op)`` in
    the modeled critical section, annotate a leaving :class:`MPIError`.

    A rank with no hook seam on the straight line (*plan* fused)
    replays entry, argument checks and device path in one
    ``Proc.charge``; ``body(op)`` charges nothing more (``op.plan``).
    Every other call replays the layers one at a time, so the seam sees
    the call between them: ``enter_call(name)``; the entry; the lock —
    on a routed build the VCI's that owns the plan's stream and the
    op's tag, which notes the CS's instructions; the argument checks,
    or the prefix up to the failing one (*failed*: ``(checks run,
    error)``), which raises; the seam's *check* event on the op
    (``comm_check`` returns the communicator the body's errors go
    through); the path with ``op.plan`` set (an entry plan has none:
    the device charges its own); the body; ``exit_call``.  Charges
    and the clock are identical either way."""
    hooks = proc.hooks
    if hooks is None and plan.fused is not None:
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
    t0 = route = seam = vci = errors_to = None
    if hooks is not None:
        t0 = hooks.enter_call(name)
        route = hooks.route
        if check is not None:
            seam = getattr(hooks, check)
    proc.charge(plan.entry)
    lock = plan.lock
    if lock is not None:
        if route is not None and plan.stream is not None:
            ctx, peer, nomatch = plan.stream
            vci = route(ctx, peer, op.tag, nomatch)
            if vci is not None:
                lock = vci.lock
        lock.acquire()  # audit: allow[FP203] - the modeled CS
        cs0 = proc.counter.total
    try:  # audit: allow[FP204] - releases the CS, annotates on the way out
        if failed is not None:
            proc.charge(plan.failing[failed[0]])
            raise failed[1]
        if plan.args is not None:
            proc.charge(plan.args)
        if seam is not None:
            errors_to = seam(op)
        if plan.path is not None:
            proc.charge(plan.path)
            op.plan = plan
        result = body(op)
        if vci is not None:
            vci.note_cs(proc.counter.total - cs0)
        return result
    except MPIError as exc:
        if errors_to is not None:   # raised by the body
            dispatch_comm_error(errors_to, exc)
        annotate(exc, proc, name)
        raise
    finally:
        if lock is not None:
            lock.release()
        if t0 is not None:
            hooks.exit_call(name, t0)


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


def check_send(comm: "Communicator", buf: Optional[Buffer], count: int,
               dtref: DatatypeRef, dest: int, tag: int,
               global_rank: bool = False
               ) -> Optional[tuple[int, MPIError]]:
    """Send-side argument validation, in the order of Table 1's
    error-checking decomposition: None when every argument is valid,
    else ``(checks run up to the failing one, its error)``: the
    *failed* of :func:`run_call`.  Charges nothing."""
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
