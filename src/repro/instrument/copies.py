"""Runtime copy counters — the dynamic side of ``repro.bufcheck``.

The static census in :mod:`repro.bufcheck` counts, per published path,
how many times a payload is *copied* between the MPI entry point and
the far-side buffer.  These counters are the runtime ground truth it is
cross-checked against (the same discipline ``repro.audit`` uses for
instruction charges): :func:`repro.datatypes.pack.pack` /
:func:`~repro.datatypes.pack.unpack` and
:meth:`repro.runtime.message.Message.own_data` report every copy,
borrow (zero-copy view) and ownership transfer they perform, and
``tests/test_bufcheck_census.py`` asserts that one eager contiguous
transfer performs exactly the number of copies COPYMAP.json says it
does.

Pure bookkeeping: nothing here charges instructions, and the counters
are process-global (payload movement is what's being counted, not
per-rank attribution).  Updates take a small lock so multi-threaded
runs stay consistent.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class CopySnapshot:
    """Immutable view of the counters at one instant."""

    n_copies: int = 0        #: payload byte ranges materialized (copied)
    bytes_copied: int = 0
    n_views: int = 0         #: payload byte ranges passed as views
    bytes_viewed: int = 0
    n_transfers: int = 0     #: ownership transfers (view -> owned bytes)
    bytes_transferred: int = 0

    def delta(self, earlier: "CopySnapshot") -> "CopySnapshot":
        """Counter movement since *earlier*."""
        return CopySnapshot(
            n_copies=self.n_copies - earlier.n_copies,
            bytes_copied=self.bytes_copied - earlier.bytes_copied,
            n_views=self.n_views - earlier.n_views,
            bytes_viewed=self.bytes_viewed - earlier.bytes_viewed,
            n_transfers=self.n_transfers - earlier.n_transfers,
            bytes_transferred=(self.bytes_transferred
                               - earlier.bytes_transferred))


_lock = threading.Lock()
#: The six counters, in :class:`CopySnapshot` field order: plain
#: integers bumped in place, so an event allocates nothing; the
#: snapshot object is built when somebody reads.
_counts = [0, 0, 0, 0, 0, 0]


def note_copy(nbytes: int) -> None:
    """A payload byte range was materialized into fresh storage."""
    with _lock:
        _counts[0] += 1
        _counts[1] += nbytes


def note_view(nbytes: int) -> None:
    """A payload byte range was handed on as a zero-copy view."""
    with _lock:
        _counts[2] += 1
        _counts[3] += nbytes


def note_transfer(nbytes: int) -> None:
    """A borrowed view was converted into owned bytes (the sanctioned
    ownership transfer, e.g. at unexpected-queue insertion)."""
    with _lock:
        _counts[4] += 1
        _counts[5] += nbytes


def snapshot() -> CopySnapshot:
    """The counters right now."""
    with _lock:
        return CopySnapshot(*_counts)


def reset() -> None:
    """Zero the counters (tests and benchmarks)."""
    with _lock:
        _counts[:] = [0, 0, 0, 0, 0, 0]


@contextmanager
def track():
    """``with track() as delta:`` — *delta()* returns the movement
    since the block was entered."""
    start = snapshot()
    yield lambda: snapshot().delta(start)
