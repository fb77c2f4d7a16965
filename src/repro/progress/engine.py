"""The background progress engine threads and their work queues.

Structure mirrors :mod:`repro.ft`'s world/rank split:
:class:`WorldProgress` is built once by the world when
``BuildConfig.progress`` is set and validates the mode;
:class:`RankProgress` is each rank's view, owning the engine threads
and the three kinds of background work:

* **Parked injection-lane completions** — the CH4 device parks a
  rendezvous send's *completion* (never its deposit: matching order
  and virtual timing are computed inline, identically to a
  ``progress=None`` build) on the owning VCI's lane; the engine
  retires it by calling ``request.complete`` at the precomputed
  virtual time, so the sender's handle completes while the
  application computes.
* **Continuations** — callbacks posted by
  :meth:`repro.runtime.request.Request.on_complete`; the NBC state
  machines chain themselves forward with these.
* **Retransmit timers** — when the rank holds reorder-stashed packets
  (the seam's fault layer), the engine scans their virtual-clock deadlines
  and releases expired ones via ``RankFaults.drain(now)``, so a rank
  that never calls into MPI still retransmits.

Locking: the engine charges and runs continuations while holding the
rank's ``cs_lock`` (an RLock — re-entry from a continuation that makes
MPI calls is fine), which keeps the instruction counter and virtual
clock single-writer and establishes the global ``cs_lock`` →
NBC-schedule-lock order.  Application blocking waits happen *outside*
the MPI entry's critical section, so the engine never deadlocks
against a waiting rank.  Idle engine threads sleep on a condition
variable (woken by parks/posts) and charge nothing; only serviced
work is charged, to ``Category.PROGRESS``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.instrument.categories import Category
from repro.instrument.costs import COSTS

if TYPE_CHECKING:
    from repro.runtime.proc import Proc
    from repro.runtime.request import Request
    from repro.runtime.world import World

#: Real-time tick between retransmit-timer scans, used only while the
#: rank actually holds reorder-stashed packets (deadline expiry is the
#: one event no condition-variable notify announces); every other
#: engine sleep is untimed and wakeup-driven.
_TIMER_TICK_S = 0.001

#: Valid ``BuildConfig.progress`` values: one engine thread per rank,
#: or one per VCI (lane *i* serviced by thread *i*; continuations and
#: retransmit timers are rank-level and serviced by thread 0).
MODES = ("thread", "per-vci")


def _charge_progress(proc, n: int) -> None:
    """One serviced item of engine work."""
    proc.charge(Category.PROGRESS, n)


class WorldProgress:
    """World-level progress-engine factory (one per progress build).

    ``BuildConfig`` has already checked the mode, and that the build
    has ``thread_safety``: the engine's threads charge the shared
    per-rank instruction counter under the rank's CS lock, and a
    single-threaded build has no modeled CS to serialize on.
    """

    def __init__(self, world: "World", mode: str):
        self.world = world
        self.mode = mode

    def rank_view(self, proc: "Proc") -> "RankProgress":
        """Build rank *proc*'s engine (starts its daemon threads)."""
        return RankProgress(proc, self.mode)


class _Lane:
    """One VCI's parked-completion lane (engine-internal).

    Mirrors the per-VCI injection-lane split of PR 4: in ``per-vci``
    mode each lane is serviced by its own engine thread, so draining
    one interface's parked completions never contends with another's.
    """

    __slots__ = ("index", "items", "n_drained")

    def __init__(self, index: int):
        self.index = index
        #: Parked (transport, request, complete_s) triples, FIFO.
        self.items: deque = deque()
        #: Completions this lane has retired (observational).
        self.n_drained = 0


class RankProgress:
    """Per-rank progress engine: work queues plus daemon thread(s).

    Public entry points: :meth:`park_completion` (CH4 device),
    :meth:`attach` (``Request.on_complete``), and
    :meth:`run_once` — one synchronous service pass, which is both
    the loop body of the engine threads and the audit's charge root
    for the ``progress.*`` cost keys.
    """

    def __init__(self, proc: "Proc", mode: str):
        from repro.runtime.hooks import make_lock
        self.proc = proc
        self.mode = mode
        #: The rank's seam, which starts this engine: the race
        #: detector and the fault layer the engine serves.
        self.hooks = hooks = proc.hooks
        tsan = hooks.tsan
        self._cv = threading.Condition(make_lock(
            hooks, "progress_cv", f"cv{proc.world_rank}", reentrant=True))
        self._lanes = [_Lane(i) for i in range(max(1, len(proc.vcis)))]
        self._continuations: deque = deque()
        #: Exceptions raised by engine-run work (also aborts the world).
        self.errors: list[BaseException] = []
        #: Observational counters for BENCH_progress and tests.
        self.n_wakeups = 0
        self.n_lane_drained = 0
        self.n_continuations = 0
        self.n_timer_fires = 0
        n_threads = len(self._lanes) if mode == "per-vci" else 1
        self._threads = []
        for slot in range(n_threads):
            thread = threading.Thread(
                target=self._run, args=(slot, n_threads),
                name=f"mpi-progress-{proc.world_rank}.{slot}", daemon=True)
            self._threads.append(thread)
        for slot, thread in enumerate(self._threads):
            if tsan is not None:
                # Fork edge: rank state built above happens-before
                # anything the engine thread touches.
                tsan.thread_fork(("progress", proc.world_rank, slot))
            thread.start()

    # -- producer side (reached through the rank's hook seam) ----------

    def park_completion(self, vci, transport, request: "Request",
                        complete_s: float) -> None:
        """Park a precomputed send completion on *vci*'s lane.

        Called by the CH4 device in place of the inline
        ``request.complete(complete_s)`` — virtual time and charges
        were already computed inline, so the engine's later
        ``complete`` call is bookkeeping only and the charge trace
        stays byte-identical to a ``progress=None`` build (plus the
        PROGRESS-category engine overhead).
        """
        lane = self._lanes[vci.index if vci is not None else 0]
        with self._cv:
            tsan = self.hooks.tsan
            if tsan is not None:
                tsan.note_access(
                    ("lane", self.proc.world_rank, lane.index),
                    what=f"injection lane {lane.index}")
            lane.items.append((transport, request, complete_s))
            self._cv.notify_all()

    def attach(self, request: "Request",
               fn: Callable[["Request"], None]) -> Callable:
        """Hold *request* until the engine has run continuation *fn*
        (the pool does not recycle it, so *fn* sees this life, not the
        next); returns what to subscribe — the enqueue."""
        with self._cv:
            request._held += 1

        def run(req: "Request") -> None:
            try:
                fn(req)
            finally:
                with self._cv:
                    req._held -= 1

        return lambda req: self.post_continuation(run, req)

    def post_continuation(self, fn: Callable[["Request"], None],
                          request: "Request") -> None:
        """Enqueue continuation *fn(request)* for the engine thread.

        FIFO per rank; dispatched by thread 0 under the rank's CS
        lock with one ``progress.continuation`` charge each.
        """
        with self._cv:
            self._continuations.append((fn, request))
            self._cv.notify_all()

    def kick(self) -> None:
        """Wake the engine threads without queueing work.

        Called when rank state the engine watches but
        does not own changes — e.g. :mod:`repro.ft.reliability` arming
        a retransmit timer, which flips thread 0's sleep from untimed
        to the :data:`_TIMER_TICK_S` deadline tick.  Callers must not
        hold the reliability layer's stash lock (the engine acquires
        it while holding ``_cv``).
        """
        with self._cv:
            self._cv.notify_all()

    # -- engine side ----------------------------------------------------

    def stats(self) -> dict:
        """Counters snapshot for benchmarks and the teardown report."""
        return {
            "mode": self.mode,
            "n_wakeups": self.n_wakeups,
            "n_lane_drained": self.n_lane_drained,
            "n_continuations": self.n_continuations,
            "n_timer_fires": self.n_timer_fires,
            "per_lane_drained": [lane.n_drained for lane in self._lanes],
        }

    def run_once(self, slot: int = 0, stride: int = 1) -> bool:
        """One service pass; returns True iff any work was done.

        Drains this thread's share of the parked lanes
        (``lanes[slot::stride]``); slot 0 additionally dispatches
        continuations and scans retransmit timers.  Charging (all
        under ``proc.cs_lock``, keeping the counter single-writer):
        one ``progress.wakeup`` per pass that services anything, one
        ``progress.lane_drain`` per retired completion, one
        ``progress.continuation`` per dispatched callback, one
        ``progress.timer_check`` per timer scan (the released
        retransmissions themselves charge RELIABILITY, as always).
        Idle passes charge nothing.
        """
        proc = self.proc
        tsan = self.hooks.tsan
        p = COSTS.progress
        did_work = False

        while True:
            lane = None
            item = None
            with self._cv:
                for candidate in self._lanes[slot::stride]:
                    if candidate.items:
                        lane = candidate
                        if tsan is not None:
                            tsan.note_access(
                                ("lane", proc.world_rank,
                                 candidate.index),
                                what=f"injection lane {candidate.index}")
                        item = candidate.items.popleft()
                        break
            if item is None:
                break
            transport, request, complete_s = item
            with proc.cs_lock:
                self._charge_item(not did_work, "lane_drain", p.lane_drain)
                did_work = True
                lane.n_drained += 1
                self.n_lane_drained += 1
                transport.note_background_drain()
                try:
                    request.complete(complete_s)
                except BaseException as exc:
                    self._note_error(exc)

        if slot == 0:
            while True:
                with self._cv:
                    entry = (self._continuations.popleft()
                             if self._continuations else None)
                if entry is None:
                    break
                fn, request = entry
                with proc.cs_lock:
                    self._charge_item(not did_work, "continuation",
                                      p.continuation)
                    did_work = True
                    self.n_continuations += 1
                    if tsan is not None:
                        # TS404: holding a matching lock here would
                        # self-deadlock any continuation that makes
                        # MPI calls (the reentrant cs_lock is the
                        # documented dispatch context and is allowed).
                        tsan.check_continuation("progress continuation")
                    try:
                        fn(request)
                    except BaseException as exc:
                        self._note_error(exc)

            faults = self.hooks.faults
            if faults is not None and faults.stashed_count():
                with proc.cs_lock:
                    self._charge_item(not did_work, "timer_check",
                                      p.timer_check)
                    did_work = True
                    fired = faults.drain(now=proc.vclock.now)
                    self.n_timer_fires += fired

        return did_work

    def _charge_item(self, first: bool, name: str, n: int) -> None:
        """Charge one serviced item, *name* costing *n* — after the
        pass's ``progress.wakeup`` when it is the pass's *first*."""
        proc = self.proc
        if first:
            self.n_wakeups += 1
            proc.charge(proc.plan("progress_wakeup", _charge_progress,
                                  COSTS.progress.wakeup))
        proc.charge(proc.plan(("progress", name), _charge_progress, n))

    def _note_error(self, exc: BaseException) -> None:
        """Record an engine-side failure and abort the world: work the
        application never polls for must not fail silently."""
        self.errors.append(exc)
        self.proc.world.abort_event.set()

    def _timers_pending(self) -> bool:
        """True when the rank holds wall-clock deadlines no notify will
        announce: reorder-stashed retransmit packets."""
        faults = self.hooks.faults
        if faults is None:
            return False
        return faults.stashed_count() > 0

    def _has_work(self, slot: int, stride: int) -> bool:
        """Queue check for the sleep decision (callers hold ``_cv``)."""
        if any(lane.items for lane in self._lanes[slot::stride]):
            return True
        if slot == 0 and self._continuations:
            return True
        return False

    def _run(self, slot: int, stride: int) -> None:
        """Engine thread body: service, then sleep until woken.

        The sleep is untimed (wakeup-driven via ``_cv``) except while
        retransmit timers are pending, where thread 0 ticks every
        :data:`_TIMER_TICK_S` to observe deadline expiry.  The thread
        is a daemon — the world makes no teardown promise beyond its
        rank threads, matching the netmod lane threads of PR 4.
        """
        tsan = self.hooks.tsan
        if tsan is not None:
            tsan.thread_begin(("progress", self.proc.world_rank, slot))
        while True:
            self.run_once(slot, stride)
            with self._cv:
                if self._has_work(slot, stride):
                    continue
                if slot == 0 and self._timers_pending():
                    self._cv.wait(_TIMER_TICK_S)
                else:
                    self._cv.wait()
