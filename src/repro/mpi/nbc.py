"""Nonblocking collectives (MPI_IBARRIER / IBCAST / IALLREDUCE / ...).

Implemented the way MPICH implements them: each operation is a
*schedule* and a request whose ``test``/``wait`` calls drive it forward.
The schedules are the generators of :mod:`repro.mpi.collectives` — the
very ones the blocking calls run to completion inline (the yield
protocol is described there) — under a second driver,
:class:`NBCRequest`: ``test`` resumes the schedule past every yielded
request that has already completed and returns whether it finished;
``wait`` blocks request by request.  This is the classic *weak
progress* model (progress happens inside MPI calls), which MPI-3.1
permits.

With a background progress engine (``BuildConfig(progress=...)``),
the schedule instead chains itself forward through
:meth:`~repro.runtime.request.Request.on_complete` continuations:
whenever an advance stops at an incomplete request — a receive, or a
rendezvous send only the progress thread can retire — that request's
completion re-runs the advance on the progress thread, so the whole
collective completes with *zero* user polls between post and wait —
the strong-progress discipline of "MPI Progress For All".  Advancing
is then serialized by a per-schedule lock nested inside the rank's CS
lock (the engine dispatches continuations holding the CS lock, so that
order is global).

Concurrent nonblocking collectives on one communicator are isolated by
a per-communicator sequence number folded into the message tags —
correct because the standard requires all ranks to issue their
nonblocking collectives in the same order.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Optional

from repro.mpi import collectives as coll
from repro.mpi import reduceops
from repro.runtime.request import Request, RequestKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator

#: Tag block for nonblocking collectives (distinct from the blocking
#: collectives' block); K concurrent outstanding NBCs are isolated.
_NBC_TAG_BASE = 1 << 21
_NBC_TAG_MOD = 4096


class NBCRequest(Request):
    """The request driving one nonblocking collective's schedule (a
    :mod:`repro.mpi.collectives` generator); ``result`` holds what the
    schedule returned once it completes."""

    __slots__ = ("comm", "steps", "_pending", "_armed", "result",
                 "_sched_mu")

    def __init__(self, comm: "Communicator", steps):
        super().__init__(RequestKind.GENERALIZED, comm.proc,
                         comm.world.abort_event)
        self.comm = comm
        self.steps = steps
        # The yielded request the schedule is suspended on (None until
        # the first advance starts it).
        self._pending: Optional[Request] = None
        # Whether that request carries a background continuation — so
        # each stall arms exactly once.
        self._armed = False
        self.result: Any = None
        # Serializes schedule advancement between the application and
        # the progress engine's continuations (reentrant: a blocking
        # advance may recurse through wait paths).
        tsan = comm.proc.tsan
        if tsan is not None:
            # Key on the request serial, not id(self) — addresses are
            # reused, serials are not (see Request._tsan_serial).
            self._sched_mu = tsan.make_lock("sched",
                                            f"nbc{self._tsan_key[1]}")
        else:
            self._sched_mu = threading.RLock()
        # Kick the schedule as far as it goes without blocking, so
        # receives are pre-posted and early sends overlap user compute.
        # A schedule validates its arguments before its first message:
        # a rejected call raises from here, before the handle exists
        # for anyone — the sanitizer included.
        self._advance(blocking=False)
        san = comm.proc.sanitizer
        if san is not None:
            # Built directly (not via the pool), so register explicitly.
            san.note_acquire(self, api="nonblocking collective")

    # -- schedule engine -----------------------------------------------------

    def _advance(self, blocking: bool) -> bool:
        """Resume the schedule until done or until the request it
        yielded would block (non-blocking mode).  Returns completion.

        With a progress engine the advance takes the rank's CS lock
        *then* the schedule lock — the same order the engine's
        continuation dispatch establishes (it runs continuations while
        holding the CS lock), so application ``test``/``wait`` calls
        and background continuations never deadlock.
        """
        proc = self.comm.proc
        if proc.progress is not None:
            with proc.cs_lock:
                with self._sched_mu:
                    return self._advance_locked(blocking)
        return self._advance_locked(blocking)

    def _advance_locked(self, blocking: bool) -> bool:
        """The actual schedule walk (see :meth:`_advance` for locking)."""
        proc = self.comm.proc
        if proc.tsan is not None:
            # Under the schedule lock with a progress engine; without
            # one the schedule is single-threaded (same-thread accesses
            # are ordered by the thread's own clock).
            proc.tsan.note_access(("nbc", self._tsan_key[1]),
                                  what="NBC schedule state")
        while not self.is_complete():
            req, data = self._pending, None
            if req is not None:
                if not (blocking or req.is_complete()):
                    self._arm_background(req)
                    return False
                req.wait()
                data = req.count_bytes if req.payload is None else req.payload
                # The inner handle never escapes the schedule — recycle
                # it; the next yielded request must arm afresh.
                self._armed = False
                proc.request_pool.release(req)
            try:
                self._pending = self.steps.send(data)
            except StopIteration as stop:
                self._pending, self.result = None, stop.value
                self.complete(proc.vclock.now)
        return True

    def _arm_background(self, req: Request) -> None:
        """Chain the stalled request to a background re-advance.

        With a progress engine, the incomplete request's completion
        posts a continuation that re-runs :meth:`_advance` on the
        engine thread; armed at most once per stalled request.
        Without one this is a no-op (``wait``/``test`` keep driving
        the schedule, the weak-progress model).
        """
        if self.comm.proc.progress is None or self._armed:
            return
        self._armed = True
        req.on_complete(self._bg_advance)

    def _bg_advance(self, _req: Request) -> None:
        """Continuation body: advance the schedule on the engine thread;
        a failure fails this collective's request (surfaced at wait)."""
        try:
            self._advance(blocking=False)
        except BaseException as exc:
            if not self.is_complete():
                self.fail(self.comm.proc.vclock.now, exc)

    # -- Request interface ---------------------------------------------------

    def test(self) -> bool:
        """Drive the schedule without blocking; True when finished."""
        if self.is_complete():
            return super().test()
        if self._advance(blocking=False):
            return super().test()
        return False

    def wait(self) -> "NBCRequest":
        """Drive the schedule to completion.

        With a progress engine the schedule advances itself through
        continuations, so this just blocks event-driven on the final
        completion — zero polls; otherwise the wait drives the
        schedule request by request (weak progress).
        """
        if not self.is_complete():
            if self.comm.proc.progress is None:
                self._advance(blocking=True)
        super().wait()
        return self


# ---------------------------------------------------------------------------
# entry points: the blocking call's schedule, under a sequence-numbered tag
# ---------------------------------------------------------------------------

def _nbc_tag(comm: "Communicator") -> int:
    seq = getattr(comm, "_nbc_seq", 0)
    comm._nbc_seq = seq + 1
    return _NBC_TAG_BASE + (seq % _NBC_TAG_MOD) * 8


def ibarrier(comm: "Communicator") -> NBCRequest:
    """MPI_IBARRIER (dissemination)."""
    return NBCRequest(comm, coll.barrier_steps(comm, _nbc_tag(comm)))


def ibcast(comm: "Communicator", obj: Any = None,
           root: int = 0) -> NBCRequest:
    """MPI_IBCAST (binomial) of a pickled object; ``request.result``
    after wait."""
    return NBCRequest(comm, coll.bcast_obj_steps(comm, obj, root,
                                                 _nbc_tag(comm)))


def iallreduce(comm: "Communicator", obj: Any,
               op: Optional[reduceops.Op] = None) -> NBCRequest:
    """MPI_IALLREDUCE of pickled objects (binomial reduce to 0 +
    binomial bcast, as one schedule)."""
    tag = _nbc_tag(comm)
    return NBCRequest(comm, coll.allreduce_obj_steps(comm, obj, op, tag,
                                                     tag + 1))


def igather(comm: "Communicator", obj: Any, root: int = 0) -> NBCRequest:
    """MPI_IGATHER (linear) of pickled objects; the root's
    ``request.result`` is the rank-ordered list, None elsewhere."""
    return NBCRequest(comm, coll.gather_obj_steps(comm, obj, root,
                                                  _nbc_tag(comm)))


def iscatter(comm: "Communicator", objs: Optional[list] = None,
             root: int = 0) -> NBCRequest:
    """MPI_ISCATTER (linear) of pickled objects; every rank's
    ``request.result`` is its piece."""
    return NBCRequest(comm, coll.scatter_obj_steps(comm, objs, root,
                                                   _nbc_tag(comm)))


def iallgather(comm: "Communicator", obj: Any) -> NBCRequest:
    """MPI_IALLGATHER (ring) of pickled objects; result is the list."""
    return NBCRequest(comm, coll.allgather_obj_steps(comm, obj,
                                                     _nbc_tag(comm)))
