"""MPI-layer point-to-point machinery: validation, entry charging.

This module is the paper's "MPI layer" for sends/receives: the
function-call overhead, the (optional) error checking, and the
(optional) thread-safety gate all live here, each charging its Table 1
cost only when the build actually performs it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Union

import numpy as np

from repro.consts import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB
from repro.datatypes.pack import Buffer
from repro.datatypes.predefined import BYTE, from_numpy_dtype
from repro.datatypes.usage import DatatypeRef, classify, compile_time
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


@fastpath
@contextmanager
def mpi_entry(proc: "Proc", function_call_cost: int,
              thread_check_cost: int,
              name: Optional[str] = None,
              vci=None) -> Iterator[None]:
    """One MPI API entry: function-call prologue charge (unless inlined
    away by ipo), thread-safety charge + critical section (unless a
    single-threaded build).  When the rank's timeline is enabled and a
    *name* is given, the call's virtual-time span is recorded.

    *vci* routes the modeled CS: a routed entry acquires only its
    owning VCI's lock (per-VCI sharding, ``num_vcis > 1``) and records
    CS occupancy on that VCI; unrouted entries — wildcard receives,
    persistent/collective internals, every ``num_vcis=1`` call — take
    ``proc.cs_lock``, which is VCI 0's lock.  Charged instruction
    counts are identical either way (the lock choice and the occupancy
    note are real-Python bookkeeping only)."""
    config = proc.config
    t0 = proc.vclock.now if proc.timeline is not None else 0.0
    if proc.sanitizer is not None and name is not None:
        proc.sanitizer.note_api(name)   # labels leak/deadlock reports
    if proc.faults is not None:
        proc.faults.check_self()   # stash flush + fault-plan rank kill
    try:  # audit: allow[FP204] - timeline bookkeeping must not leak
        proc.charge(proc.plan(("entry", function_call_cost, thread_check_cost),
                              _charge_entry, function_call_cost,
                              thread_check_cost))
        if config.thread_safety:
            cs_lock = proc.cs_lock if vci is None else vci.lock
            with cs_lock:  # audit: allow[FP203] - the modeled CS
                if vci is None:
                    yield
                else:
                    cs_entry_total = proc.counter.total
                    yield
                    vci.note_cs(proc.counter.total - cs_entry_total)
        else:
            yield
    except MPIError as exc:
        # Annotate every error escaping an MPI entry with the raising
        # rank and the operation name, so error-handler callbacks and
        # teardown reports can say which call on which rank failed.
        if exc.rank is None:
            exc.rank = proc.world_rank
        if exc.op is None and name is not None:
            exc.op = name
        raise
    finally:
        if proc.timeline is not None and name is not None:
            from repro.analysis.timeline import TimelineEvent
            proc.timeline.append(
                TimelineEvent(name=name, t0=t0, t1=proc.vclock.now))


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
        return arg, arg.size, compile_time(from_numpy_dtype(arg.dtype))
    if isinstance(arg, tuple):
        if len(arg) == 3:
            buf, count, dt = arg
            return buf, count, classify(dt) if not isinstance(dt, DatatypeRef) else dt
        if len(arg) == 2:
            buf, dt = arg
            dtref = classify(dt) if not isinstance(dt, DatatypeRef) else dt
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


def validate_send(proc: "Proc", err: ErrorCheckCosts, comm: "Communicator",
                  buf: Optional[Buffer], count: int, dtref: DatatypeRef,
                  dest: int, tag: int, global_rank: bool = False) -> None:
    """Send-side argument validation, charging per Table 1's
    error-checking decomposition."""
    limit = comm.world_size if global_rank else comm.size
    failed = None
    if count < 0:
        failed = 1, MPIErrCount(f"count must be >= 0, got {count}")
    elif not 0 <= tag <= TAG_UB:
        failed = 1, MPIErrTag(f"tag must be in [0, {TAG_UB}], got {tag}")
    elif buf is None and count > 0:
        failed = 1, MPIErrBuffer("NULL buffer with nonzero count")
    elif not dtref.datatype.committed:
        failed = 2, MPIErrDatatype(
            f"datatype {dtref.datatype.name} used before commit")
    elif comm.freed:
        failed = 3, MPIErrComm("operation on a freed communicator")
    elif dest != PROC_NULL and not 0 <= dest < limit:
        failed = 4, MPIErrRank(
            f"destination {dest} outside [0, {limit}) "
            f"({'world' if global_rank else 'communicator'} ranks)")
    validate_args(proc, err, failed)


def validate_recv(proc: "Proc", err: ErrorCheckCosts, comm: "Communicator",
                  count: int, dtref: DatatypeRef, source: int,
                  tag: int) -> None:
    """Receive-side argument validation."""
    failed = None
    if count < 0:
        failed = 1, MPIErrCount(f"count must be >= 0, got {count}")
    elif tag != ANY_TAG and not 0 <= tag <= TAG_UB:
        failed = 1, MPIErrTag(
            f"tag must be ANY_TAG or in [0, {TAG_UB}], got {tag}")
    elif not dtref.datatype.committed:
        failed = 2, MPIErrDatatype(
            f"datatype {dtref.datatype.name} used before commit")
    elif comm.freed:
        failed = 3, MPIErrComm("operation on a freed communicator")
    elif source not in (ANY_SOURCE, PROC_NULL) \
            and not 0 <= source < comm.size:
        failed = 4, MPIErrRank(
            f"source {source} outside [0, {comm.size}) and not a wildcard")
    validate_args(proc, err, failed)
