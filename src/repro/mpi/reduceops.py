"""Reduction operators (MPI_SUM, MPI_MAX, ...).

Each :class:`Op` provides two faces:

* ``op(a, b, out)`` — elementwise ``out[:] = op(a, b)``, vectorized
  and allocating nothing: the buffer collectives reduce into their
  accumulator with it; ``apply_numpy(incoming, target)`` is its RMA
  spelling (MPI-3.1's "op applied at the target");
* ``combine_py(a, b)`` — generic-object reduction for the lowercase
  (pickled) collective API.

MPI_COMPARE_AND_SWAP is an accumulate too: :func:`compare_and_replace`
builds its one-call operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.datatypes.pack import pack
from repro.errors import MPIErrOp


@dataclass(frozen=True)
class Op:
    """One reduction operator."""

    name: str
    commutative: bool
    _np: Callable[[np.ndarray, np.ndarray, np.ndarray], object]
    _py: Callable[[object, object], object]
    #: Defined for MPI_ACCUMULATE and friends only: no reduction.
    rma_only: bool = False

    def __call__(self, a: np.ndarray, b: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
        """Elementwise ``out[:] = op(a, b)`` on equal-shaped arrays of
        one dtype; *out* may be *a* or *b* (elementwise is alias-safe)."""
        if not a.shape == b.shape == out.shape:
            raise MPIErrOp(
                f"{self.name}: shape mismatch {a.shape} vs {b.shape} "
                f"into {out.shape}")
        self._np(a, b, out=out)
        return out

    def apply_numpy(self, incoming: np.ndarray, target: np.ndarray) -> None:
        """In-place ``target[:] = op(incoming, target)`` (RMA semantics)."""
        self(incoming, target, target)

    def combine_py(self, a: object, b: object) -> object:
        """Combine two Python objects (generic collective path)."""
        return self._py(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Op({self.name})"


SUM = Op("MPI_SUM", True, np.add, lambda a, b: a + b)
PROD = Op("MPI_PROD", True, np.multiply, lambda a, b: a * b)
MAX = Op("MPI_MAX", True, np.maximum, max)
MIN = Op("MPI_MIN", True, np.minimum, min)
# Logical ops produce 0/1 in the operand dtype, per the standard: the
# ufunc's boolean result is cast into ``out``, which has that dtype.
LAND = Op("MPI_LAND", True, np.logical_and,
          lambda a, b: bool(a) and bool(b))
LOR = Op("MPI_LOR", True, np.logical_or,
         lambda a, b: bool(a) or bool(b))
BAND = Op("MPI_BAND", True, np.bitwise_and, lambda a, b: a & b)
BOR = Op("MPI_BOR", True, np.bitwise_or, lambda a, b: a | b)
BXOR = Op("MPI_BXOR", True, np.bitwise_xor, lambda a, b: a ^ b)

#: RMA-only: MPI_REPLACE — accumulate that overwrites (what MPI_PUT is
#: to MPI_ACCUMULATE).
REPLACE = Op("MPI_REPLACE", False,
             lambda inc, tgt, out: np.copyto(out, inc), lambda a, b: a,
             rma_only=True)
#: RMA-only: MPI_NO_OP — used with GET_ACCUMULATE for atomic reads.
NO_OP = Op("MPI_NO_OP", False,
           lambda inc, tgt, out: np.copyto(out, tgt), lambda a, b: b,
           rma_only=True)


def compare_and_replace(compare, datatype) -> Op:
    """MPI_COMPARE_AND_SWAP's operator: replace the one target element
    with the incoming one when the two are identical (MPI-3.1 §11.3.4)
    to *compare*'s element of *datatype* — byte for byte, so a -0.0
    does not match a 0.0.  *compare* is read when the operator runs,
    under the target's data lock."""
    def swap(incoming, target, out):
        if target.tobytes() == pack(compare, 1, datatype):
            np.copyto(out, incoming)
    # RMA-only: no collective combines with it, so it has no _py face.
    return Op("MPI_COMPARE_AND_SWAP", False, swap, None, rma_only=True)


#: All operators by MPI name.
BY_NAME: dict[str, Op] = {
    op.name: op
    for op in (SUM, PROD, MAX, MIN, LAND, LOR, BAND, BOR, BXOR,
               REPLACE, NO_OP)
}
