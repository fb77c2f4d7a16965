"""Active-message fallback handlers (the CH4 core's safety net).

When a netmod cannot implement an operation natively — the paper's
example is MPI_PUT with a complex data layout that the NIC's RDMA
engine cannot express — the CH4 core runs it as an active message: the
origin packs the data and ships a handler invocation; the handler
performs the operation at the target.

In this single-address-space substrate the handler executes inline in
the origin thread against the target's window state (the outcome is
identical; the extra *instruction* cost of building the AM and running
the handler is charged by
:meth:`repro.netmod.base.Netmod.charge_am_fallback`, and the extra
*time* flows through the same fabric model).  A CH4 put or get of
contiguous types does not come here, native or not: it is one RDMA
store or load into the target's memory
(:meth:`repro.mpi.rma.WindowState.rdma`).  A put or get with a derived
type on either side, every accumulate, and every RMA call on the CH3
device moves its bytes through these handlers.  The atomics are
accumulates: MPI_FETCH_AND_OP is a one-element GET_ACCUMULATE, and
MPI_COMPARE_AND_SWAP one whose operator replaces the target element
when it equals the compare
(:func:`repro.mpi.reduceops.compare_and_replace`).  The devices call
the handlers by name, with positional arguments: a handler is a
function, not a registry entry.

The origin-side argument checks of the same operations live here too,
so both devices raise the same error before anything is issued.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.pack import pack, unpack
from repro.errors import MPIErrArg, MPIErrCount, MPIErrDatatype, MPIError


def size_error(op, nbytes: int) -> MPIError:
    """The error of an RMA call whose origin carries *nbytes* while
    its target layout holds a different number: a count error for a
    negative origin or target count, else an argument error."""
    for count in (op.origin_count, op.target_count):
        if count < 0:
            return MPIErrCount(f"count must be >= 0, got {count}")
    return MPIErrArg(
        f"{op.mpi_name}: origin carries {nbytes} bytes but the target "
        f"layout holds {op.target_count * op.target_dtref.datatype.size}")


def _element_dtype(datatype):
    """The numpy dtype of the one predefined type *datatype* is built
    from; None for a struct of several."""
    if datatype.np_dtype is not None:
        return datatype.np_dtype
    bases = datatype.base if isinstance(datatype.base, list) \
        else [datatype.base]
    kinds = {_element_dtype(base) for base in bases}
    return kinds.pop() if len(kinds) == 1 else None


def check_accumulate(op, nbytes: int) -> None:
    """MPI-3.1 §11.3.4: an accumulate combines elements of one
    predefined type on both sides, as many on each.  Raise — before
    anything is issued — for a derived target, an origin of another
    basic type (its bytes would be reinterpreted) or an origin of
    *nbytes* the target layout does not hold."""
    target = op.target_dtref.datatype
    if target.np_dtype is None:
        raise MPIErrDatatype(
            f"{op.mpi_name} requires a predefined target datatype")
    origin = op.origin_dtref.datatype.np_dtype
    if origin is None:   # a derived origin: walk it to its elements
        origin = _element_dtype(op.origin_dtref.datatype)
    if origin is None or origin != target.np_dtype:
        raise MPIErrDatatype(
            f"{op.mpi_name}: origin {op.origin_dtref.datatype.name} and "
            f"target {target.name} are not the same predefined type")
    if nbytes != op.target_count * target.size:
        raise size_error(op, nbytes)


def am_put(target_state, data: bytes, offset_bytes: int,
           target_count: int, target_datatype) -> None:
    """Scatter *data* into the target window with the target layout."""
    with target_state.data_lock:
        unpack(data, target_state.view(offset_bytes, target_count,
                                       target_datatype),
               target_count, target_datatype)


def am_get(target_state, offset_bytes: int, target_count: int,
           target_datatype) -> bytes:
    """Gather the target layout from the target window."""
    with target_state.data_lock:
        return pack(target_state.view(offset_bytes, target_count,
                                      target_datatype),
                    target_count, target_datatype)


def am_accumulate(target_state, data: bytes, offset_bytes: int,
                  target_count: int, target_datatype, op,
                  fetch: bool) -> bytes | None:
    """Elementwise ``target = op(incoming, target)`` on arguments
    :func:`check_accumulate` passed; optionally return the pre-update
    target contents (GET_ACCUMULATE)."""
    with target_state.data_lock:
        view = target_state.view(offset_bytes, target_count,
                                 target_datatype) \
            .view(target_datatype.np_dtype)
        before = view.tobytes() if fetch else None
        incoming = np.frombuffer(data, dtype=target_datatype.np_dtype)
        op.apply_numpy(incoming, view)
        return before

