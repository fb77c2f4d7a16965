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
per-rank attribution).  Each thread bumps a tally of its own, so a
``note_*`` takes no lock and loses no update: only the owning thread
ever writes a tally.  A reader sums the tallies under a lock that
only readers and a thread's first note take; a thread that has ended
is folded into one retired tally then, so the set summed does not grow
with thread churn.  A snapshot taken while another thread is noting
may see one of an event's two counters (count, bytes) bumped and not
yet the other; between runs — where tests and benchmarks read — it is
exact.
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


#: Taken by readers and by a thread's first note, never by a note.
_lock = threading.Lock()
#: ``(thread, tally)`` of every thread that has noted and is not yet
#: folded into ``_retired``.  A tally holds the six counters in
#: :class:`CopySnapshot` field order: plain integers bumped in place,
#: so an event allocates nothing.
_live: list[tuple[threading.Thread, list[int]]] = []
#: The tallies of threads that have ended, summed.
_retired = [0, 0, 0, 0, 0, 0]
#: What :func:`reset` read: a snapshot reports movement since it.
_base = [0, 0, 0, 0, 0, 0]


def _fold_dead() -> None:
    """Fold the tallies of ended threads into ``_retired`` (callers
    hold ``_lock``; an ended thread's tally no longer changes)."""
    alive = []
    for thread, tally in _live:
        if thread.is_alive():
            alive.append((thread, tally))
        else:
            for i, n in enumerate(tally):
                _retired[i] += n
    _live[:] = alive


class _Tally(threading.local):
    """The calling thread's counters, registered on its first note."""

    def __init__(self):
        self.counts = counts = [0, 0, 0, 0, 0, 0]
        with _lock:
            _fold_dead()
            _live.append((threading.current_thread(), counts))


_tally = _Tally()


def note_copy(nbytes: int) -> None:
    """A payload byte range was materialized into fresh storage."""
    counts = _tally.counts
    counts[0] += 1
    counts[1] += nbytes


def note_view(nbytes: int) -> None:
    """A payload byte range was handed on as a zero-copy view."""
    counts = _tally.counts
    counts[2] += 1
    counts[3] += nbytes


def note_transfer(nbytes: int) -> None:
    """A borrowed view was converted into owned bytes (the sanctioned
    ownership transfer, e.g. at unexpected-queue insertion)."""
    counts = _tally.counts
    counts[4] += 1
    counts[5] += nbytes


def _totals() -> list[int]:
    """Every tally summed (callers hold ``_lock``)."""
    _fold_dead()
    totals = list(_retired)
    for _, tally in _live:
        for i, n in enumerate(tally):
            totals[i] += n
    return totals


def snapshot() -> CopySnapshot:
    """The counters right now."""
    with _lock:
        return CopySnapshot(*(n - b for n, b in zip(_totals(), _base)))


def reset() -> None:
    """Zero the counters (tests and benchmarks).  No tally is written:
    later snapshots count from here, so a thread noting concurrently
    loses nothing."""
    with _lock:
        _base[:] = _totals()


@contextmanager
def track():
    """``with track() as delta:`` — *delta()* returns the movement
    since the block was entered."""
    start = snapshot()
    yield lambda: snapshot().delta(start)
