"""Request objects and completion (MPI_WAIT/TEST families).

Section 3.5 of the paper targets exactly this machinery: MPI-3.1
forces the implementation to return a completable handle *per
operation*.  The standard path here allocates a full :class:`Request`;
the ``isend_noreq`` extension path instead bumps a per-communicator
counter (see :meth:`repro.mpi.comm.Communicator.waitall_noreq`), which
is where its 10-instruction saving comes from.

Completion is event-driven: state transitions are guarded by a
per-request lock (so a sender thread completing a receive cannot race
the receiver cancelling it), and a blocked ``wait`` parks on a
:class:`~repro.runtime.completion.Waker` it leaves in the request's
``_parked`` slot — the thread that completes the request takes the
slot in the same critical section and wakes the waiter directly, so a
blocked wait costs one lock hand-off.  A per-rank :class:`RequestPool`
recycles handles on the hot path; none of this changes charged
instruction counts, which are calibrated at issue time in the devices.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Callable, Optional, Sequence

from repro.errors import MPIErrRequest
from repro.runtime.completion import CompletionQueue, Waker, park
from repro.runtime.hooks import make_lock, race_key


class RequestKind(enum.Enum):
    """What operation the request tracks."""

    SEND = "send"
    RECV = "recv"
    RMA = "rma"
    GENERALIZED = "generalized"


class Request:
    """A completable handle for one nonblocking operation.

    Completion may happen on a *different* thread (the sender thread
    completes a matched receive), so all state transitions — complete,
    cancel — are serialized by a per-request lock.  Completion carries
    the virtual time at which the operation finished and, for receives,
    the message's source/tag/byte count — the material MPI_STATUS is
    made of.

    Completion-callback ordering guarantees (``subscribe`` /
    ``on_complete``): every callback runs **exactly once**, even when
    registration races a concurrent ``complete``/``cancel``/``fail``.
    Callbacks run in registration (FIFO) order on the thread that
    performed the state transition; a callback registered after the
    transition's flush has drained runs immediately on the registering
    thread.  ``on_complete`` additionally marshals the callback onto
    the rank's background progress thread when a progress engine is
    enabled — ordering (FIFO per request, then FIFO in the engine's
    continuation queue) and exactly-once still hold.
    """

    __slots__ = ("kind", "_complete", "_abort", "_lock", "_parked",
                 "_waiters", "_flushing", "_epoch", "_race_key", "_hooks",
                 "complete_s", "source", "tag", "count_bytes", "error",
                 "cancelled", "_proc", "payload", "_keepalive", "_posted",
                 "_held")

    #: Serial numbers for race-detector annotation keys.  ``id(self)``
    #: is NOT usable as a key: CPython reuses addresses, so a dead
    #: request's access history would collide with a new object that
    #: holds a different per-request lock (a false TS401).
    _race_serial = itertools.count()

    def __init__(self, kind: RequestKind, proc=None, abort_event=None,
                 complete_s: Optional[float] = None,
                 keepalive: "object | None" = None):
        self.kind = kind
        #: Done — completed, cancelled or failed.  Written under
        #: ``_lock``; a waiter that reads it False under that lock
        #: leaves its waker in ``_parked`` before letting go, and the
        #: transition that sets it takes the slot in the same critical
        #: section and fires it: no wakeup is lost.  The slot is not a
        #: callback — it is outside the ``subscribe`` FIFO and fired
        #: first, so the blocked rank runs while continuations do.
        #: A request given *complete_s* is born complete (see
        #: :meth:`RequestPool.acquire`).
        self._complete = complete_s is not None
        self._parked: Optional[Waker] = None
        self._abort = abort_event
        #: The seam the owning rank was built with, its pool's (None on
        #: a plain build; a timeline observes calls, not requests):
        #: every hook below is one of its events.
        pool = getattr(proc, "request_pool", None)
        self._hooks = hooks = pool._hooks if pool is not None else None
        serial = next(Request._race_serial)
        #: The key the race detector annotates this request's state
        #: under; None unless one runs.
        self._race_key = race_key(hooks, "req", serial)
        self._lock = make_lock(hooks, "request", f"req{serial}")
        self._waiters: deque[Callable[["Request"], None]] = deque()
        #: True while the transitioning thread is draining ``_waiters``
        #: — late subscribers enqueue instead of firing themselves, so
        #: no callback can run twice or be skipped.
        self._flushing = False
        #: Bumped by ``_reset`` (pool recycle); a flush loop from the
        #: handle's previous life observes the bump and stops.
        self._epoch = 0
        self._proc = proc
        self.complete_s: float = complete_s or 0.0
        self.source: int = -1
        self.tag: int = -1
        self.count_bytes: int = 0
        self.error: Optional[BaseException] = None
        self.cancelled = False
        #: Raw received bytes for bufferless (generic-object) receives.
        self.payload: Optional[bytes] = None
        #: Zero-copy send: the request pins the payload view (and so
        #: the buffer it borrows) until the handle is recycled — the
        #: GPAW C-layer idiom of keeping a reference on the request
        #: instead of copying.  Checked statically by bufcheck BC503.
        self._keepalive: "object | None" = keepalive
        #: A receive's descriptor while it sits in a matching queue:
        #: the engine's, written under the engine lock on enqueue,
        #: match and cancel — what ``cancel_posted`` finds it by.
        self._posted = None
        #: Continuations of this life a progress engine has yet to run
        #: (its count, under its lock): :meth:`RequestPool.release`
        #: does not recycle the handle while one is owed.
        self._held = 0

    # -- completion-side API (called by whichever thread finishes the op)

    def complete(self, complete_s: float, source: int = -1, tag: int = -1,
                 count_bytes: int = 0,
                 error: Optional[BaseException] = None) -> None:
        """Mark the operation finished at virtual time *complete_s*.

        Completing a *cancelled* request is a documented no-op: the
        receiver won the race and the late completion (e.g. a sender
        thread matching a receive the receiver cancelled concurrently)
        is discarded.  Completing an already-*completed* request is
        still a program error.
        """
        with self._lock:
            if self.cancelled:
                return
            if self._complete:
                raise MPIErrRequest("request completed twice")
            self.complete_s = complete_s
            self.source = source
            self.tag = tag
            self.count_bytes = count_bytes
            self.error = error
            if self._race_key is not None:
                self._hooks.publish(self._race_key)
            self._complete = True
            parked, self._parked = self._parked, None
            flush = self._flushing = bool(self._waiters)
            epoch = self._epoch
        if parked is not None:
            parked.fire()
        if flush:
            self._flush_waiters(epoch)

    # Every transition below publishes, under ``_lock``, the race-
    # detector edge that ``wait``'s bare read of the state consumes.

    def cancel(self) -> None:
        """MPI_CANCEL (supported for unmatched receives only).

        Cancelling an already-completed request is a no-op (the
        operation won the race); otherwise the request transitions to
        cancelled-and-done and any late ``complete`` is discarded.
        """
        with self._lock:
            if self._complete:
                return
            self.cancelled = True
            if self._race_key is not None:
                self._hooks.publish(self._race_key)
            self._complete = True
            parked, self._parked = self._parked, None
            flush = self._flushing = bool(self._waiters)
            epoch = self._epoch
        if self._hooks is not None:
            self._hooks.cancel(self)
        if parked is not None:
            parked.fire()
        if flush:
            self._flush_waiters(epoch)

    def fail(self, complete_s: float, error: BaseException) -> None:
        """Complete exceptionally — the peer-failure path.

        A no-op when the request is already done (the data won the
        race); otherwise the request transitions to done-with-error and
        any late ``complete`` from a matching thread is discarded,
        under the same race rules as :meth:`cancel`.  ``wait``/``test``
        re-raise *error* on the owning rank's thread.
        """
        with self._lock:
            if self._complete:
                return
            self.cancelled = True   # discard any late complete()
            self.error = error
            self.complete_s = complete_s
            if self._race_key is not None:
                self._hooks.publish(self._race_key)
            self._complete = True
            parked, self._parked = self._parked, None
            flush = self._flushing = bool(self._waiters)
            epoch = self._epoch
        if parked is not None:
            parked.fire()
        if flush:
            self._flush_waiters(epoch)

    def _flush_waiters(self, epoch: int) -> None:
        """Drain ``_waiters`` one callback at a time, re-taking the
        state lock between pops.

        The loop ends only when the queue is observed empty under the
        lock (clearing ``_flushing`` in the same critical section) or
        when ``_reset`` recycled the handle (epoch bump) — so a
        callback appended *during* the drain is popped by this loop
        rather than fired a second time by the subscriber, and a stale
        flush from a recycled handle's previous life never touches the
        new life's waiters.  Callbacks themselves run outside the lock.
        """
        while True:
            with self._lock:
                if self._epoch != epoch:
                    return
                if not self._waiters:
                    self._flushing = False
                    return
                callback = self._waiters.popleft()
            callback(self)

    def subscribe(self, callback: Callable[["Request"], None]) -> None:
        """Register *callback(request)* to run exactly once when this
        request completes, fails, or is cancelled.

        Ordering: callbacks fire in registration (FIFO) order on the
        thread that performed the transition.  A registration that
        lands while that thread is still draining earlier callbacks is
        appended to the drain (exactly-once — the subscriber never
        fires it itself); one that lands after the drain finished runs
        immediately on the registering thread.  This is the
        notification hook ``waitany``/``waitsome`` and the progress
        engine's continuations build on."""
        with self._lock:
            if not self._complete or self._flushing:
                self._waiters.append(callback)
                return
        callback(self)

    def _unsubscribe(self, callback: Callable[["Request"], None]) -> None:
        """Withdraw a :meth:`subscribe` registration that has not run
        (no-op once it has): a waiter that gives up — ``waitany`` on
        the requests it did not return, an aborted wait — must not
        leave its callback, and what it pins, on a pending request."""
        with self._lock:
            try:
                self._waiters.remove(callback)
            except ValueError:
                pass

    def on_complete(self, fn: Callable[["Request"], None]) -> None:
        """MPIX-continuation-style completion chaining.

        Attaches *fn(request)* with :meth:`subscribe`'s exactly-once
        and FIFO guarantees.  When the owning rank runs a background
        progress engine, *fn* is marshalled onto the rank's progress
        thread (so continuation work — e.g. advancing an NBC schedule —
        happens off the application's critical path and is charged to
        the PROGRESS category); otherwise it runs per ``subscribe``
        semantics, on the completing thread.
        """
        if self._hooks is not None:
            fn = self._hooks.on_complete(self, fn)
        self.subscribe(fn)

    #: MPIX spelling from "Designing and Prototyping Extensions to MPI
    #: in MPICH" — the same chaining under its proposal name.
    attach_continuation = on_complete

    # -- waiter-side API ---------------------------------------------------

    def is_complete(self) -> bool:
        """Nonblocking completion check (no clock merge)."""
        return self._complete

    def test(self) -> bool:
        """MPI_TEST: nonblocking; merges the completion time into the
        calling rank's clock when complete."""
        if not self._complete:
            return False
        self.wait()
        return True

    def wait(self) -> "Request":
        """MPI_WAIT: block until complete, merge clocks, re-raise any
        error captured by the completing thread.  Event-driven: woken
        by the completing thread itself (or a world abort)."""
        if not self._complete:
            self._block()
        proc = self._proc
        if proc is not None:
            clock = proc.vclock
            if self.complete_s > clock.now:
                clock.now = self.complete_s   # VClock.merge, inline
        if self._hooks is not None:
            # The bare read of the state, ordered by the edge the
            # completing thread published; closes the sanitizer's
            # record (may raise MSD203).
            self._hooks.finish(self)
        if self.error is not None:
            raise self.error
        return self

    def _block(self) -> None:
        """Park the calling thread until the request is done or the
        world aborts, announcing the blocked wait to the seam (see
        :meth:`repro.runtime.hooks.Hooks.wait_enter`).

        The waker goes into ``_parked`` under the state lock, in the
        critical section that finds the request still pending; a second
        thread waiting on the same handle finds the slot taken and
        subscribes its waker as a callback instead.  Every exit that is
        not a completion — an abort, an error out of the sleep —
        withdraws its own registration.
        """
        proc, hooks = self._proc, self._hooks
        if hooks is not None:
            hooks.wait_enter(f"{self.kind.value} request", self)
        waker = Waker()
        direct = True
        try:
            with self._lock:
                if self._complete:
                    return
                if self._parked is None:
                    self._parked = waker
                else:
                    direct = False
            if not direct:
                self.subscribe(waker.fire)
            if proc is not None:
                proc.request_pool.n_parked += 1
            park(waker, self._abort)
            if direct and proc is not None and self._complete:
                proc.request_pool.n_woken += 1
        finally:
            if not self._complete:
                if direct:
                    with self._lock:
                        if self._parked is waker:
                            self._parked = None
                else:
                    self._unsubscribe(waker.fire)
            if hooks is not None:
                hooks.wait_exit()
        if not self._complete:
            from repro.runtime.world import WorldAborted
            raise WorldAborted("world aborted while waiting on request")

    # -- pool support ------------------------------------------------------

    def _reset(self, kind: RequestKind, complete_s: Optional[float] = None,
               keepalive: "object | None" = None) -> None:
        """Reinitialize a recycled handle (RequestPool.acquire only):
        pending, or — given *complete_s* — already complete at that
        time and pinning *keepalive*.

        Takes the state lock like every other transition: release
        happens strictly after completion, but a stale waiter callback
        from the handle's previous life may still be running on the
        completing thread, and its reads must not interleave with the
        reinitialization.  (Found by the FP301 lockset audit rule.)
        """
        with self._lock:
            if self._race_key is not None:
                self._hooks.access(self._race_key, True, "request state")
            self.kind = kind
            self._complete = complete_s is not None
            self._parked = None
            self._waiters.clear()
            self._flushing = False
            self._epoch += 1   # kills any stale flush loop
            self.complete_s = complete_s or 0.0
            self.source = -1
            self.tag = -1
            self.count_bytes = 0
            self.error = None
            self.cancelled = False
            self.payload = None
            self._keepalive = keepalive
            self._posted = None


class RequestPool:
    """A per-rank free-pool of :class:`Request` handles (§3.5).

    The standard path must produce a completable handle per operation;
    what it need not do is *allocate* one each time.  The pool recycles
    handles the way MPICH recycles request objects from a freelist.
    Under MPI_THREAD_MULTIPLE several application threads call into
    the same rank's pool concurrently, so the freelist is guarded by
    its own leaf lock — which also publishes the happens-before edge
    from a handle's previous life (its final bare-state read in
    ``wait``) to ``_reset`` in its next one.  (The unlocked
    freelist was found by the TS401 rule in ``repro.tsan``.)

    Only exact :class:`Request` instances are pooled — subclasses
    (e.g. NBC schedule requests) are dropped on release.  Charged
    instruction counts are untouched: the devices charge the calibrated
    §3.5 request-management cost whether the handle is fresh or
    recycled.
    """

    #: Upper bound on retained handles (a rank rarely has more
    #: simultaneously live internal requests than this).
    MAX_POOLED = 256

    def __init__(self, proc=None, abort_event=None):
        self._proc = proc
        self._abort = abort_event
        self._free: list[Request] = []
        self._hooks = hooks = getattr(proc, "hooks", None)
        self._mu = make_lock(hooks, "pool",
                             f"pool{getattr(proc, 'world_rank', 0)}")
        #: Monotone counters for tests and perfbench.
        self.n_alloc = 0
        self.n_reuse = 0
        #: Waits of this rank that actually blocked, and how many of
        #: those the completing thread woke through ``_parked`` (the
        #: rest: aborts and second waiters).  MPI_T pvars
        #: ``request_waits_parked`` / ``request_wakes_direct``.
        self.n_parked = 0
        self.n_woken = 0

    def acquire(self, kind: RequestKind, complete_s: Optional[float] = None,
                keepalive: "object | None" = None) -> Request:
        """A fresh-or-recycled request bound to the owning rank:
        pending, or — given *complete_s* — born complete at that
        virtual time and pinning *keepalive* (MPICH's lightweight
        request: an operation already over when its handle is made
        needs the handle, not the state machine).  Nobody holds a
        newborn's handle, so no waiter can be owed a wake-up; a build
        whose hooks watch completion acquires pending and calls
        :meth:`Request.complete` instead."""
        req = None
        with self._mu:
            if self._free:
                req = self._free.pop()
        if req is not None:
            req._reset(kind, complete_s, keepalive)
            self.n_reuse += 1
        else:
            self.n_alloc += 1
            req = Request(kind, self._proc, self._abort, complete_s,
                          keepalive)
        if self._hooks is not None:
            self._hooks.acquire(req)   # opens the sanitizer's record
        return req

    def release(self, req: Optional[Request]) -> None:
        """Return a handle whose lifetime is over (completed, waited,
        and with no user-visible reference) to the pool.  A handle
        still pending is refused: recycled while it sits in a matching
        queue, its next life would be completed by this life's
        message."""
        if req is None:
            return
        if self._hooks is not None:
            self._hooks.release(req)   # lifetime over
        if req.__class__ is not Request:
            return
        if not req._complete:
            raise MPIErrRequest(
                f"release of a pending {req.kind.value} request")
        if req._held:
            return   # a continuation still owes this life: not recycled
        with self._mu:
            if len(self._free) < self.MAX_POOLED:
                self._free.append(req)


def waitall(requests: Sequence[Request]) -> None:
    """MPI_WAITALL over a request list."""
    for req in requests:
        req.wait()


def waitany(requests: Sequence[Request]) -> int:
    """MPI_WAITANY: block until one request completes; returns its index.

    Subscribes every request to a :class:`CompletionQueue` and blocks
    once — completion of *any* request (first-listed or last-listed)
    wakes the waiter immediately, and the queue's exit withdraws the
    subscriptions of the requests that are still pending.
    """
    if not requests:
        raise MPIErrRequest("waitany on empty request list")
    for i, req in enumerate(requests):
        if req.is_complete():
            req.wait()
            return i
    abort = next((r._abort for r in requests if r._abort is not None), None)
    queue = CompletionQueue(abort_event=abort)
    for i, req in enumerate(requests):
        queue.watch(i, req)
    i = queue.wait_one()
    requests[i].wait()
    return i


def testany(requests: Sequence[Request]) -> Optional[int]:
    """MPI_TESTANY: index of one completed request (merged), or None."""
    for i, req in enumerate(requests):
        if req.is_complete():
            req.test()
            return i
    return None


def waitsome(requests: Sequence[Request]) -> list[int]:
    """MPI_WAITSOME: block until at least one completes; return the
    indices of every completed request (all merged)."""
    if not requests:
        raise MPIErrRequest("waitsome on empty request list")
    waitany(requests)
    return testsome(requests)


def testsome(requests: Sequence[Request]) -> list[int]:
    """MPI_TESTSOME: indices of currently completed requests (merged)."""
    done = []
    for i, req in enumerate(requests):
        if req.is_complete():
            req.test()
            done.append(i)
    return done


def testall(requests: Sequence[Request]) -> bool:
    """MPI_TESTALL: True iff every request is complete (and then merges
    all completion times)."""
    if all(req.is_complete() for req in requests):
        for req in requests:
            req.test()
        return True
    return False
