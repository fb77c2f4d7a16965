"""Explicit pack/unpack (MPI_PACK / MPI_UNPACK / MPI_PACK_SIZE).

The user-facing face of the datatype engine: serialize typed data into
a caller-managed byte buffer and back, with MPI's incremental
``position`` cursor semantics.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.datatypes.pack import Buffer, as_bytes, pack, packed_size, unpack
from repro.datatypes.predefined import Datatype
from repro.errors import MPIErrArg, MPIErrBuffer, MPIErrDatatype


def pack_size(count: int, datatype: Datatype) -> int:
    """MPI_PACK_SIZE: bytes needed to pack (count, datatype)."""
    return packed_size(count, datatype)


def _require_committed(datatype: Datatype) -> None:
    if not datatype.committed:
        raise MPIErrDatatype(
            f"datatype {datatype.name} used before commit")


def mpi_pack(inbuf: Buffer, count: int, datatype: Datatype,
             outbuf: Union[bytearray, np.ndarray],
             position: int = 0) -> int:
    """MPI_PACK: append (count, datatype) of *inbuf* to *outbuf* at
    *position*; returns the updated position."""
    if position < 0:
        raise MPIErrArg(f"position must be >= 0, got {position}")
    _require_committed(datatype)
    data = pack(inbuf, count, datatype)
    out = as_bytes(outbuf)
    if not out.flags.writeable:
        raise MPIErrBuffer("pack output buffer is read-only")
    end = position + len(data)
    if end > out.size:
        raise MPIErrBuffer(
            f"pack overflows output buffer: need {end} bytes, "
            f"have {out.size}")
    out[position:end] = np.frombuffer(data, np.uint8)
    return end


def mpi_unpack(inbuf: Buffer, position: int, outbuf: Buffer, count: int,
               datatype: Datatype) -> int:
    """MPI_UNPACK: extract (count, datatype) into *outbuf* from *inbuf*
    starting at *position*; returns the updated position."""
    if position < 0:
        raise MPIErrArg(f"position must be >= 0, got {position}")
    _require_committed(datatype)
    raw = as_bytes(inbuf)
    nbytes = packed_size(count, datatype)
    end = position + nbytes
    if end > raw.size:
        raise MPIErrBuffer(
            f"unpack reads past input buffer: need {end} bytes, "
            f"have {raw.size}")
    # Feed the scatter a view of the input range — materializing it
    # first would be a pointless extra copy (bufcheck rule BC504).
    unpack(raw[position:end].data, outbuf, count, datatype)
    return end
