"""The ``@fastpath`` marker for audit-covered critical-path functions.

The decorator is a runtime no-op: it tags the function object (and is
recognized *syntactically* by the audit, ``python -m repro.check``) so
the fast-path purity rules (FP2xx) and the uncharged-work rule (FP104)
know which functions form the paper's measured critical path.  Marking
a function promises that it

* charges (directly or through a callee) every instruction of modeled
  work it performs, and
* performs no hidden expensive host-Python work — no container
  allocations, no lock acquisitions, no exception setup, no logging —
  unless a ``# audit: allow[FPxxx]`` pragma documents why.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable)

#: Attribute set on marked functions (runtime introspection).
FASTPATH_ATTR = "__mpi_fastpath__"


def fastpath(func: _F) -> _F:
    """Mark *func* as part of the audited fast path (no-op wrapper)."""
    setattr(func, FASTPATH_ATTR, True)
    return func


def is_fastpath(func: Callable) -> bool:
    """Was *func* marked with :func:`fastpath`?"""
    return bool(getattr(func, FASTPATH_ATTR, False))
