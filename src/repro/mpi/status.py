"""MPI_Status: the receive-side result record."""

from __future__ import annotations

from typing import NamedTuple

from repro.datatypes.predefined import Datatype
from repro.errors import MPIErrTruncate
from repro.runtime.request import Request


class Status(NamedTuple):
    """Source, tag, and byte count of one completed operation.

    ``get_count`` converts the byte count to whole elements of a
    datatype (MPI_GET_COUNT), raising when the bytes do not divide
    evenly (the standard returns MPI_UNDEFINED; an exception is the
    Pythonic rendering).

    A ``NamedTuple``, immutable like MPI_Status once returned: a
    receive builds one with ``tuple.__new__`` (:meth:`from_request`),
    at C level, running no Python frame of its own.  Keyword
    construction — ``Status(source=0, tag=1, count_bytes=8)`` — works
    as for any named tuple.
    """

    source: int
    tag: int
    count_bytes: int
    cancelled: bool = False

    @staticmethod
    def from_request(request: Request) -> "Status":
        """Build a status from a completed request."""
        return tuple.__new__(Status, (request.source, request.tag,
                                      request.count_bytes,
                                      request.cancelled))

    def get_count(self, datatype: Datatype) -> int:
        """Number of whole *datatype* elements received."""
        if datatype.size == 0 or self.count_bytes % datatype.size:
            raise MPIErrTruncate(
                f"{self.count_bytes} bytes is not a whole number of "
                f"{datatype.name} elements")
        return self.count_bytes // datatype.size

    def get_elements(self, datatype: Datatype) -> int:
        """Number of basic elements received (MPI_GET_ELEMENTS); for the
        predefined types used here this equals :meth:`get_count`."""
        return self.get_count(datatype)
