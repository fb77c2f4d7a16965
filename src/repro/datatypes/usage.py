"""Datatype usage classes (Section 2.2 of the paper).

The paper surveys 62 applications and buckets their datatype usage:

* **Class 1** — derived datatypes in the critical path (rare; HACC and
  MCB only, and only in setup).  Redundant checks are genuinely needed.
* **Class 2** — predefined datatypes passed as compile-time constants
  (``MPI_DOUBLE`` literally at the call site).  MPI-only link-time
  inlining lets the compiler fold the datatype checks away.
* **Class 3** — predefined datatypes held in a runtime-constant
  variable (LULESH's ``baseType``, Nekbone's switch, QMCPACK/LSMS/
  miniFE templates).  Only *whole-program* link-time inlining can fold
  the checks.

In this reproduction the distinction is carried by how the caller
passes the datatype: a bare :class:`~repro.datatypes.predefined.Datatype`
models Class 2, a :func:`runtime_constant` wrapper models Class 3, and
a derived type is Class 1.  The CH4 MPI layer consults the class plus
the build's :class:`~repro.core.config.IpoScope` to decide whether the
redundant runtime checks execute (and hence charge instructions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.datatypes.predefined import _DTYPE_TO_PREDEFINED, Datatype


class UsageClass(enum.Enum):
    """How the application supplies the datatype argument."""

    DERIVED = 1          #: Class 1 — derived datatype
    COMPILE_TIME = 2     #: Class 2 — predefined, compile-time constant
    RUNTIME_CONST = 3    #: Class 3 — predefined, runtime constant


#: ``member.index`` — a plain int for charge-plan keys (hashing an enum
#: member is a Python-level call; see ``instrument.categories``).
for _index, _member in enumerate(UsageClass):
    _member.index = _index


@dataclass(frozen=True)
class DatatypeRef:
    """A datatype argument together with its usage class."""

    datatype: Datatype
    usage: UsageClass

    def __post_init__(self):
        if self.usage is UsageClass.DERIVED and self.datatype.predefined:
            raise ValueError("DERIVED usage requires a derived datatype")
        # ``key``: everything a call plan branches on in its datatype
        # argument — the usage class (which redundant checks run) and
        # contiguity (whether the transport moves it natively) — as
        # one int that hashes in C.
        object.__setattr__(self, "key",
                           2 * self.usage.index + self.datatype.contig)


#: What a bare ndarray argument means, per numpy dtype: the Class-2
#: reference of the matching predefined type, built once here so the
#: per-message path looks it up instead of constructing one.
NDARRAY_REFS: dict = {
    dtype: DatatypeRef(datatype, UsageClass.COMPILE_TIME)
    for dtype, datatype in _DTYPE_TO_PREDEFINED.items()}


def compile_time(datatype: Datatype) -> DatatypeRef:
    """Mark a predefined datatype as a compile-time constant (Class 2)."""
    return DatatypeRef(datatype, UsageClass.COMPILE_TIME
                       if datatype.predefined else UsageClass.DERIVED)


def runtime_constant(datatype: Datatype) -> DatatypeRef:
    """Mark a predefined datatype as a runtime constant (Class 3) —
    the LULESH ``baseType`` pattern."""
    return DatatypeRef(datatype, UsageClass.RUNTIME_CONST
                       if datatype.predefined else UsageClass.DERIVED)


def classify(arg: Union[Datatype, DatatypeRef]) -> DatatypeRef:
    """Normalize a user datatype argument to a classified reference.

    A bare predefined handle models the common Class-2 call site; a
    bare derived handle is Class 1; an explicit :class:`DatatypeRef`
    passes through unchanged.
    """
    if isinstance(arg, DatatypeRef):
        return arg
    if arg.predefined:
        return DatatypeRef(arg, UsageClass.COMPILE_TIME)
    return DatatypeRef(arg, UsageClass.DERIVED)
