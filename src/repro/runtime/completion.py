"""Event-driven completion plumbing: nothing in the runtime polls.

* :class:`Waker` and :func:`park` — the one way a thread of this
  runtime blocks (``Request.wait``, ``waitany``, inline or
  ``progress="thread"``): one C-level lock hand-off.
* :class:`NotifyingEvent` — the world's abort event: ``set()`` wakes
  every parked waiter and fires every listener *immediately*;
  :class:`_ForeignEventWatcher` bridges a foreign plain Event to one.
* :class:`CompletionQueue` — ``waitany``/``waitsome`` subscribe every
  request and park once; no rescanning, no head-of-line blocking.
* :class:`CompletionSegment` — one VCI's completion counters.

None of this charges instructions: completion machinery here models
the *real-Python execution path* only; the paper-calibrated Section 3.5
request-management costs are charged at issue time by the devices and
are unchanged.
"""

from __future__ import annotations

import threading
from _thread import allocate_lock
from collections import deque
from typing import Callable, Optional

from repro.runtime.hooks import make_lock, race_key


class Waker:
    """A binary semaphore over a single C-level lock: one thread parks,
    any thread fires.

    The lock starts taken, :meth:`fire` releases it and :meth:`park`
    takes it again: a fire that lands *before* the park is kept (the
    parker finds the lock free) and a repeated fire is a no-op.
    """

    __slots__ = ("_lock",)

    def __init__(self):
        self._lock = allocate_lock()
        self._lock.acquire()

    def fire(self, _request=None) -> None:
        """Wake the parker, now or when it parks.  Idempotent and safe
        from any thread; the ignored argument lets a bound ``fire`` be
        subscribed as a completion callback."""
        try:
            self._lock.release()
        except RuntimeError:    # fired already
            pass

    def park(self, timeout: Optional[float] = None) -> bool:
        """Block (in C, GIL released) until fired; False if *timeout*
        seconds pass first."""
        return self._lock.acquire(True, -1 if timeout is None else timeout)


class NotifyingEvent(threading.Event):
    """A ``threading.Event`` whose ``set()`` also wakes parked waiters
    and fires listeners.

    Listeners are one-shot wake callbacks (they must not block and must
    be safe to call from any thread).  ``add_listener`` on an
    already-set event fires the callback immediately, so registration
    has no lost-wakeup window: register first, then check ``is_set``.
    """

    def __init__(self):
        super().__init__()
        self._listeners: list[Callable[[], None]] = []
        self._listeners_lock = threading.Lock()
        #: Wakers of the threads parked right now (see :func:`park`).
        #: No lock: ``add``, ``discard`` and the ``list()`` snapshot
        #: are each GIL-atomic, and a parker registers *then* looks.
        self.parked: set[Waker] = set()

    def add_listener(self, callback: Callable[[], None]) -> None:
        """Register *callback* to run when the event is set (now, if it
        already is)."""
        fire = False
        with self._listeners_lock:
            if self.is_set():
                fire = True
            else:
                self._listeners.append(callback)
        if fire:
            callback()

    def remove_listener(self, callback: Callable[[], None]) -> None:
        """Unregister one occurrence of *callback* (no-op if absent)."""
        with self._listeners_lock:
            try:
                self._listeners.remove(callback)
            except ValueError:
                pass

    def set(self) -> None:
        """Set the flag, fire every parked waker, then fire (and drop)
        all registered listeners."""
        super().set()
        for waker in list(self.parked):
            waker.fire()
        with self._listeners_lock:
            listeners, self._listeners = self._listeners, []
        for callback in listeners:
            callback()


class _ForeignEventWatcher:
    """Bridge for a foreign plain ``threading.Event`` used as an abort
    flag: one daemon thread blocks on the event's own ``wait()`` and
    sets a :class:`NotifyingEvent` twin the instant it fires, so
    waiters register on the twin exactly as on a native abort event
    and never poll.

    One watcher (and one watcher thread) exists per distinct foreign
    event; it retires as it fires.  A foreign event that is cleared
    and aborted again simply gets a fresh bridge on the next
    registration.
    """

    __slots__ = ("event", "twin")

    def __init__(self, event):
        self.event = event
        self.twin = NotifyingEvent()
        threading.Thread(target=self._watch, name="abort-event-watcher",
                         daemon=True).start()

    def _watch(self) -> None:
        """Thread body: sleep on the foreign event, retire the registry
        entry, then wake everything registered on the twin."""
        self.event.wait()
        with _foreign_mu:
            if _foreign_watchers.get(id(self.event)) is self:
                del _foreign_watchers[id(self.event)]
        self.twin.set()


#: Live bridges for foreign plain Events, keyed by ``id()``.  Each
#: watcher holds a strong reference to its event, so a key cannot be
#: reused while its entry is alive; entries retire when they fire.
_foreign_watchers: dict[int, _ForeignEventWatcher] = {}
_foreign_mu = threading.Lock()


def _notifier(event, bridge: bool = True) -> Optional[NotifyingEvent]:
    """Where to register for *event*: itself, or a foreign plain
    Event's twin — bridged on first use, or None when there is no
    live bridge and *bridge* is False."""
    if hasattr(event, "parked"):
        return event
    with _foreign_mu:
        watcher = _foreign_watchers.get(id(event))
        if watcher is None or watcher.event is not event:
            if not bridge:
                return None
            watcher = _foreign_watchers[id(event)] = \
                _ForeignEventWatcher(event)
    return watcher.twin


def add_abort_listener(event, callback: Callable[[], None]) -> bool:
    """Subscribe *callback* to *event*; always succeeds (returns True,
    for call-site symmetry).  Native or bridged, the caller may block
    without a timeout: abort wakes it immediately, never at a poll
    boundary, and a callback added after the event fired runs at once
    on the registering thread."""
    if event.is_set():
        callback()
    else:
        _notifier(event).add_listener(callback)
    return True


def remove_abort_listener(event, callback: Callable[[], None]) -> None:
    """Undo :func:`add_abort_listener` (safe to call redundantly)."""
    notifier = _notifier(event, bridge=False)
    if notifier is not None:
        notifier.remove_listener(callback)


def park(waker: Waker, abort=None, tick=None) -> None:
    """Sleep on *waker* until it is fired or *abort* is set: the one
    place a blocked wait of this runtime sleeps.

    Abort fan-out is *register, then look*: the waker joins the
    event's ``parked`` set before the flag is read, and ``set()``
    raises the flag before it snapshots the set, so whichever order
    the two threads run in, the parker either sees the flag or is
    fired — with no lock taken on the event.  Returns however it was
    woken; the caller re-reads its own condition and the flag.

    *tick* (a failure-detector build's roster scan, from the seam's
    ``wait_enter``) turns the sleep into 20 ms slices that each offer
    the rate-limited scan: a rank parked in a wait is often the *only*
    live thread (a server blocked on a request from a vanished
    client), so without a progress engine's timer tick this is where
    silence expiry is observed.
    """
    parked = None
    if abort is not None:
        # A native event is its own notifier: no call on the hot path.
        parked = getattr(abort, "parked", None)
        if parked is None:
            parked = _notifier(abort).parked
        parked.add(waker)
    try:
        if abort is None or not abort.is_set():
            if tick is None:
                waker.park()
            else:
                while not waker.park(0.02):
                    tick()
    finally:
        if parked is not None:
            parked.discard(waker)


class CompletionSegment:
    """One VCI's completion-queue segment (observational).

    Real MPICH VCIs carry their own completion queues so progress on
    one interface never touches another's cachelines.  Here the
    segment records which lane each operation retired through — send
    completions are noted by the device at issue time, receive
    completions by the owning matching shard at match time, RMA
    completions at injection.  Nothing here charges instructions or
    affects completion semantics (requests complete exactly as
    before); the counters feed ``BENCH_vci.json`` and the per-VCI
    teardown report.
    """

    __slots__ = ("index", "_lock", "_hooks", "_race_key", "n_send",
                 "n_recv", "n_rma", "last_complete_s")

    def __init__(self, index: int, hooks=None):
        self.index = index
        #: The rank's hook seam: under a race detector the counter lock
        #: is instrumented and every :meth:`note` is an annotated
        #: access under ``_race_key`` (None otherwise).
        self._hooks = hooks
        self._race_key = race_key(hooks, "cseg", id(self))
        self._lock = make_lock(hooks, "cseg", f"cseg{index}")
        self.n_send = 0
        self.n_recv = 0
        self.n_rma = 0
        self.last_complete_s = 0.0

    def note(self, kind: str, complete_s: float) -> None:
        """Record one completion of *kind* ("send"/"recv"/"rma") that
        retired through this segment at virtual time *complete_s*."""
        with self._lock:
            if self._race_key is not None:
                self._hooks.access(self._race_key, True,
                                   f"completion segment {self.index}")
            if kind == "send":
                self.n_send += 1
            elif kind == "recv":
                self.n_recv += 1
            else:
                self.n_rma += 1
            if complete_s > self.last_complete_s:
                self.last_complete_s = complete_s

    @property
    def n_total(self) -> int:
        """All completions retired through this segment."""
        return self.n_send + self.n_recv + self.n_rma

    def counts(self) -> tuple[int, int, int]:
        """(send, recv, rma) completion counts, read atomically."""
        with self._lock:
            return self.n_send, self.n_recv, self.n_rma


class CompletionQueue:
    """A per-wait completion queue for ``waitany``/``waitsome``.

    The waiter subscribes each request under a *key* (its index in the
    user's list); completing threads push keys in completion order and
    the waiter pops them without ever rescanning the request list.
    Keys arrive at most once per ``watch`` call; a request that was
    already complete at subscription time is pushed immediately.  One
    waiter, one :meth:`wait_one` per queue: its exit withdraws the
    subscriptions of every request that did not complete.
    """

    def __init__(self, abort_event=None):
        self._ready: deque = deque()
        self._abort = abort_event
        self._waker = Waker()
        self._watched: list = []

    def watch(self, key, request) -> None:
        """Subscribe *request*; its *key* is pushed on completion."""
        def push(_req):
            self._ready.append(key)
            self._waker.fire()
        self._watched.append((request, push))
        request.subscribe(push)

    def pop_ready(self) -> Optional[object]:
        """Nonblocking: the next completed key, or None."""
        return self._ready.popleft() if self._ready else None

    def wait_one(self):
        """Block until some watched request completes; returns its key.

        Raises :class:`~repro.runtime.world.WorldAborted` immediately
        (not at a poll boundary) if the world aborts first.
        """
        ready, abort = self._ready, self._abort
        try:
            while not ready:
                park(self._waker, abort)
                if not ready and abort is not None and abort.is_set():
                    from repro.runtime.world import WorldAborted
                    raise WorldAborted(
                        "world aborted while waiting for completion")
            return ready.popleft()
        finally:
            for request, push in self._watched:
                request._unsubscribe(push)
            self._watched.clear()
