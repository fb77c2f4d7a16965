"""Instrumented locks for the hybrid race detector.

:class:`TsanLock` wraps an ``RLock`` and reports every acquire and
release to the rank's detector, which maintains the FastTrack
happens-before edges (acquire joins the lock's clock, the final
release publishes the thread's clock) and the Eraser-style held-set
used for lockset intersection, lock-order (TS402), blocked-while-
holding (TS403) and continuation-under-lock (TS404) checks.

The wrapper implements the full private protocol that
``threading.Condition`` probes for — ``_release_save`` /
``_acquire_restore`` / ``_is_owned`` — so runtime condition variables
built as ``threading.Condition(tsan.make_lock(...))`` release their
tracked lock correctly while waiting: a thread blocked in
``Condition.wait`` does *not* hold the lock, and the detector's
held-set reflects that.

Reentrancy is tracked per thread: nested acquires and their matching
releases add no happens-before edges and no lock-order edges (only
the outermost pair does), mirroring FastTrack's treatment of
reentrant monitors.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.tsan.detector import WorldTsan


class TsanLock:
    """A detector-instrumented reentrant lock.

    ``kind`` labels the lock's role in the runtime ("engine", "vci",
    "wild", "request", "cseg", "ft", "tx", "sched", "progress_cv") and
    drives the per-rule exemptions: TS403 exempts "sched" (the NBC
    weak-progress schedule lock deliberately spans inner waits) and
    TS404 flags only "engine"/"shard"/"wild" (continuations run under
    the reentrant VCI-0 ``cs_lock`` by documented engine design).
    """

    __slots__ = ("kind", "name", "_tsan", "_lock", "_depth")

    def __init__(self, tsan: "WorldTsan", kind: str, name: str):
        self.kind = kind
        self.name = name
        self._tsan = tsan
        self._lock = threading.RLock()
        #: Per-thread reentrancy depth (detector-thread-local storage).
        self._depth = threading.local()

    def _get_depth(self) -> int:
        return getattr(self._depth, "n", 0)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying RLock; the outermost acquire per
        thread reports a detector lock event (HB join + held-set)."""
        got = self._lock.acquire(blocking, timeout)
        if got:
            depth = self._get_depth()
            self._depth.n = depth + 1
            if depth == 0:
                self._tsan.note_acquire(self)
        return got

    def release(self) -> None:
        """Release once; the outermost release per thread publishes the
        thread's clock into the lock and leaves the held-set."""
        depth = self._get_depth()
        if depth == 1:
            self._tsan.note_release(self)
        self._depth.n = depth - 1
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self.release()

    # -- threading.Condition private protocol ---------------------------

    def _release_save(self):
        """Fully release (any depth) for a Condition.wait; the saved
        state restores the same depth on wakeup.  The detector sees
        one release now and one acquire on restore — a blocked waiter
        holds nothing."""
        depth = self._get_depth()
        if depth > 0:
            self._tsan.note_release(self)
        self._depth.n = 0
        for _ in range(depth):
            self._lock.release()
        return depth

    def _acquire_restore(self, saved) -> None:
        """Reacquire to the depth saved by :meth:`_release_save`."""
        for _ in range(saved):
            self._lock.acquire()
        self._depth.n = saved
        if saved > 0:
            self._tsan.note_acquire(self)

    def _is_owned(self) -> bool:
        """Condition's ownership probe: held by the calling thread?"""
        return self._get_depth() > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TsanLock({self.kind}:{self.name})"
