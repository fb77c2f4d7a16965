"""Pack/unpack engines: one range for contiguous types, one word
gather for everything else.

Messages travel through the runtime as contiguous byte ranges.
Packing a ``(buffer, count, datatype)`` triple gathers the true-data
bytes of *count* elements; unpacking scatters them back.

Everything that depends on the datatype alone is compiled when the
type is committed (:class:`repro.datatypes.typemap.GatherPlan`, held
by the datatype handle and dropped by ``free``): the *granule* — the
widest word of 8, 4, 2 or 1 bytes that divides the extent and every
segment offset and length — and the index of the element's words.
The per-message path then validates the buffer, views the span the
elements occupy as words of that width and moves them with a single
``words[idx]`` (``words[idx] = src`` on receive), so a strided column
of doubles costs one move and one 8-byte index entry per double, not
eight of each.  The byte gather is the granule-1 case of the same
code, not a second engine, and a buffer whose base address is not
aligned to the granule is viewed at the widest width that is.

The fast path (contiguous datatype) is genuinely zero-copy: ``pack``
returns a read-through ``memoryview`` of the caller's storage unless
``copy=True`` forces the legacy materializing behaviour.  Ownership
discipline for the view (who must materialize it, and when) is what
``repro.bufcheck`` statically verifies; every copy/borrow performed
here reports to :mod:`repro.instrument.copies` so the static census
can be cross-checked at runtime.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.datatypes.predefined import Datatype
from repro.errors import (MPIErrBuffer, MPIErrCount, MPIErrDatatype,
                          MPIErrTruncate)
from repro.instrument import copies

Buffer = Union[bytes, bytearray, memoryview, np.ndarray]


def as_bytes(buf: Buffer) -> np.ndarray:
    """View any supported buffer as a 1-D uint8 array without copying.

    Raises
    ------
    MPIErrBuffer
        If *buf* does not expose a usable contiguous byte view.
    """
    if isinstance(buf, np.ndarray):
        if not buf.flags.c_contiguous:
            raise MPIErrBuffer("buffer must be C-contiguous")
        return buf.view(np.uint8).reshape(-1)
    if isinstance(buf, (bytes, bytearray, memoryview)):
        return np.frombuffer(buf, dtype=np.uint8)
    raise MPIErrBuffer(f"unsupported buffer type {type(buf).__name__}")


def packed_size(count: int, datatype: Datatype) -> int:
    """Bytes of true data in *count* elements of *datatype*."""
    if count < 0:
        raise MPIErrCount(f"count must be >= 0, got {count}")
    return count * datatype.size


_WORDS = {8: np.uint64, 4: np.uint32, 2: np.uint16, 1: np.uint8}


def _word_view(span: np.ndarray, count: int, datatype: Datatype):
    """View *span* — exactly the bytes *count* elements of a
    non-contiguous *datatype* occupy — as the widest words both the
    type's plan and the buffer's base address allow.

    Returns the words, the plan's index of the elements' words at that
    width, and whether two of the elements overlap.
    """
    plan = datatype.gather_plan()
    granule = plan.granule
    words = span.view(_WORDS[granule])
    while not words.flags.aligned:
        granule //= 2
        words = span.view(_WORDS[granule])
    idx, overlapping = plan.index(count, granule)
    return words, idx, overlapping


def _required_span(count: int, datatype: Datatype) -> int:
    """Minimum buffer length in bytes to hold *count* elements."""
    if count == 0:
        return 0
    return (count - 1) * datatype.extent + datatype.typemap.ub


Packed = Union[bytes, memoryview]


def pack(buf: Buffer, count: int, datatype: Datatype,
         copy: bool = False) -> Packed:
    """Gather *count* elements of *datatype* from *buf* into a dense
    byte range.

    Contiguous datatypes return a zero-copy ``memoryview`` of *buf*'s
    storage (the caller borrows the application buffer; whoever may
    hold the range past the call must take ownership via
    ``Message.own_data()`` / ``bytes()``) unless ``copy=True``, which
    forces an owned ``bytes`` snapshot — what fault-injected builds
    send, because their retransmit stash holds payloads across calls.
    Non-contiguous gathers always materialize.
    """
    if count < 0:
        raise MPIErrCount(f"count must be >= 0, got {count}")
    if count == 0:
        return b""
    if datatype.contig:
        # The one contiguous branch, for every caller and buffer kind:
        # the cast is the contiguity check (GPAW's CHK_ARRAY — validate
        # once, then hand raw memory down).  Where it refuses, as_bytes
        # says why (not C-contiguous, not a buffer) — or its uint8 view
        # serves, for a dtype or empty shape memoryview cannot cast.
        try:
            raw = memoryview(buf).cast("B")
        except (TypeError, ValueError):
            raw = as_bytes(buf).data
        need = count * datatype.size
        if len(raw) < need:
            raise MPIErrBuffer(
                f"buffer holds {len(raw)} bytes, need {need} for "
                f"{count} x {datatype.name}")
        seg = raw[:need]
        if copy:
            copies.note_copy(need)
            return seg.tobytes()   # bufcheck: ignore[BC504] - copy mode
        copies.note_view(need)
        return seg
    span = as_bytes(buf)
    need = _required_span(count, datatype)
    if span.size < need:
        raise MPIErrBuffer(
            f"buffer holds {span.size} bytes, need {need} for "
            f"{count} x {datatype.name}")
    words, idx, _ = _word_view(span[:need], count, datatype)
    gathered = words[idx]
    copies.note_copy(gathered.nbytes)
    return gathered.tobytes()


def unpack(data: Packed, buf: Buffer, count: int,
           datatype: Datatype) -> int:
    """Scatter dense bytes *data* into *buf* as *count* elements.

    Returns the number of whole elements written (MPI_GET_COUNT
    semantics).  Receiving fewer bytes than ``count*size`` is allowed;
    receiving more raises :class:`MPIErrTruncate`.
    """
    if count < 0:
        raise MPIErrCount(f"count must be >= 0, got {count}")
    size = datatype.size
    nbytes = len(data)
    if nbytes > count * size:
        raise MPIErrTruncate(
            f"message of {nbytes} bytes exceeds receive buffer of "
            f"{count * size} bytes ({count} x {datatype.name})")
    if nbytes % size:
        raise MPIErrTruncate(
            f"message of {nbytes} bytes is not a whole number of "
            f"{datatype.name} elements")
    nelem = nbytes // size
    if nelem == 0:
        return 0
    if datatype.contig:
        try:
            raw = memoryview(buf).cast("B")
        except (TypeError, ValueError):
            raw = as_bytes(buf).data   # as in pack
        if raw.readonly:
            raise MPIErrBuffer("cannot unpack into a read-only buffer")
        if len(raw) < nbytes:
            raise MPIErrBuffer(
                f"receive buffer holds {len(raw)} bytes, need {nbytes}")
        copies.note_copy(nbytes)
        raw[:nbytes] = data   # the one receive-side scatter copy
        return nelem
    span = as_bytes(buf)
    if not span.flags.writeable:
        raise MPIErrBuffer("cannot unpack into a read-only buffer")
    need = _required_span(nelem, datatype)
    if span.size < need:
        raise MPIErrBuffer(
            f"receive buffer holds {span.size} bytes, need {need}")
    src = np.frombuffer(data, dtype=np.uint8)
    copies.note_copy(src.size)
    words, idx, overlapping = _word_view(span[:need], nelem, datatype)
    if overlapping:
        raise MPIErrDatatype(
            f"cannot unpack {nelem} x {datatype.name}: its elements "
            f"overlap (extent {datatype.extent} < upper bound "
            f"{datatype.typemap.ub}), so the result would depend "
            "on the order bytes are written in")
    words[idx] = src.view(words.dtype)
    return nelem
