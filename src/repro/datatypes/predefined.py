"""Predefined MPI datatypes.

A :class:`Datatype` knows its size, extent, and (when one exists) its
numpy dtype.  Predefined types are created committed; derived types
(:mod:`repro.datatypes.derived`) must be committed before use, which is
one of the error checks the paper's default build performs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datatypes.typemap import GatherPlan, TypeSegment, Typemap


class Datatype:
    """An MPI datatype handle.

    Parameters
    ----------
    name:
        MPI-style name, e.g. ``"MPI_DOUBLE"``.
    size:
        Number of bytes of true data per element (sum of segment
        lengths).
    extent:
        Span in bytes from the element's lower bound to its upper
        bound; for predefined types this equals ``size``.
    typemap:
        Flattened byte-segment layout of one element.
    np_dtype:
        Corresponding numpy dtype for predefined types, else None.
    """

    __slots__ = ("name", "size", "extent", "lb", "typemap", "np_dtype",
                 "committed", "predefined", "contig", "plan")

    def __init__(self, name: str, size: int, extent: int,
                 typemap: Typemap, np_dtype: Optional[np.dtype] = None,
                 committed: bool = True, predefined: bool = True,
                 lb: int = 0):
        self.name = name
        self.size = size
        self.extent = extent
        self.lb = lb
        self.typemap = typemap
        self.np_dtype = np_dtype
        self.committed = committed
        self.predefined = predefined
        #: True when one element's data occupies [lb, lb+size) densely
        #: and extent == size — the layout the fast path requires.
        self.contig = typemap.is_contiguous() and extent == size and lb == 0
        #: The layout compiled for pack/unpack; contiguous types move
        #: as one range and never need one.
        self.plan: Optional[GatherPlan] = None

    def commit(self) -> "Datatype":
        """Mark the type ready for use in communication
        (MPI_TYPE_COMMIT) and compile its gather plan, so that no
        message pays for what depends on the type alone."""
        self.committed = True
        if not self.contig:
            self.gather_plan()
        return self

    def gather_plan(self) -> GatherPlan:
        """The compiled layout, built on first use for callers that
        pack without committing."""
        plan = self.plan
        if plan is None:
            plan = self.plan = GatherPlan(self.typemap, self.extent)
        return plan

    def free(self) -> None:
        """Release the handle and its compiled plan (MPI_TYPE_FREE).
        Predefined types cannot be freed."""
        if self.predefined:
            from repro.errors import MPIErrDatatype
            raise MPIErrDatatype(f"cannot free predefined type {self.name}")
        self.committed = False
        self.plan = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "predefined" if self.predefined else "derived"
        return (f"Datatype({self.name!r}, size={self.size}, "
                f"extent={self.extent}, {kind})")


def _make(name: str, np_dtype_str: str) -> Datatype:
    dt = np.dtype(np_dtype_str)
    size = dt.itemsize
    return Datatype(name=name, size=size, extent=size,
                    typemap=Typemap((TypeSegment(0, size),)),
                    np_dtype=dt)


BYTE = _make("MPI_BYTE", "u1")
CHAR = _make("MPI_CHAR", "i1")
SHORT = _make("MPI_SHORT", "i2")
INT = _make("MPI_INT", "i4")
LONG = _make("MPI_LONG", "i8")
LONG_LONG = _make("MPI_LONG_LONG", "i8")
UNSIGNED = _make("MPI_UNSIGNED", "u4")
UNSIGNED_LONG = _make("MPI_UNSIGNED_LONG", "u8")
FLOAT = _make("MPI_FLOAT", "f4")
DOUBLE = _make("MPI_DOUBLE", "f8")
INT8 = _make("MPI_INT8_T", "i1")
INT16 = _make("MPI_INT16_T", "i2")
INT32 = _make("MPI_INT32_T", "i4")
INT64 = _make("MPI_INT64_T", "i8")
UINT8 = _make("MPI_UINT8_T", "u1")
UINT16 = _make("MPI_UINT16_T", "u2")
UINT32 = _make("MPI_UINT32_T", "u4")
UINT64 = _make("MPI_UINT64_T", "u8")
FLOAT32 = _make("MPI_FLOAT", "f4")
FLOAT64 = _make("MPI_DOUBLE", "f8")
COMPLEX64 = _make("MPI_C_FLOAT_COMPLEX", "c8")
COMPLEX128 = _make("MPI_C_DOUBLE_COMPLEX", "c16")

#: All distinct predefined handles by name.
PREDEFINED: dict[str, Datatype] = {
    dt.name: dt
    for dt in (BYTE, CHAR, SHORT, INT, LONG, LONG_LONG, UNSIGNED,
               UNSIGNED_LONG, FLOAT, DOUBLE, INT8, INT16, INT32, INT64,
               UINT8, UINT16, UINT32, UINT64, COMPLEX64, COMPLEX128)
}

_NUMPY_TO_PREDEFINED: dict[str, Datatype] = {
    "uint8": UINT8, "int8": INT8, "uint16": UINT16, "int16": INT16,
    "uint32": UINT32, "int32": INT32, "uint64": UINT64, "int64": INT64,
    "float32": FLOAT, "float64": DOUBLE,
    "complex64": COMPLEX64, "complex128": COMPLEX128,
}

#: The same map keyed by the dtype objects arrays carry: the per-message
#: lookup, which skips numpy's Python-level ``dtype.name`` rebuild.
_DTYPE_TO_PREDEFINED: dict[np.dtype, Datatype] = {
    np.dtype(name): dt for name, dt in _NUMPY_TO_PREDEFINED.items()}


def from_numpy_dtype(dtype: np.dtype | str) -> Datatype:
    """Map a numpy dtype to the equivalent predefined MPI datatype.

    This is how the Class-3 interlibrary type-conversion pattern of
    Section 2.2 (LULESH's ``baseType``, Nekbone's switch) appears in
    this library's application proxies.

    Raises
    ------
    KeyError
        If no predefined MPI type corresponds to *dtype*.
    """
    try:
        return _DTYPE_TO_PREDEFINED[dtype]
    except (KeyError, TypeError):   # a name, a non-native order, no match
        return _NUMPY_TO_PREDEFINED[np.dtype(dtype).name]
