"""The receive-side matching engine.

Implements MPI-3.1 matching semantics — the (context, source, tag)
triplet with ANY_SOURCE/ANY_TAG wildcards over posted-receive and
unexpected-message queues — plus the arrival-order matching of the
paper's ``MPI_ISEND_NOMATCH`` proposal (Section 3.6), under which
source and tag are ignored and only communicator-context isolation
remains.

One engine exists per rank.  Senders deposit under the engine's lock;
the owning rank posts receives and probes under the same lock.  Queue
order is arrival order, which preserves MPI's non-overtaking guarantee
because each sender deposits in program order.

There is one descriptor per side and it *is* the queue element: a
posted receive is its :class:`PostedRecv` (match fields, landing
fields, queue stamp), an unexpected message its
:class:`~repro.runtime.message.Message`.  Nothing wraps either, and a
queued receive's :class:`Request` points back at its descriptor —
which is all ``cancel_posted`` needs.

Two implementations share that contract:

* :class:`LinearMatchingEngine` — the seed's O(n) list scans, kept as
  the executable reference the property tests compare the others
  against; no build selects it.
* :class:`BucketMatchingEngine` — what every build runs (sharded per
  VCI by :class:`repro.runtime.vci.VCIShardedEngine` when
  ``num_vcis > 1``).  MPICH's bucketed-queue design: posted and
  unexpected queues are hash buckets keyed on ``(ctx, src, tag)`` (and
  per-context arrival-order queues for nomatch traffic), so
  fully-concrete matching is O(1) at any queue depth.  Receives using
  ``ANY_SOURCE``/``ANY_TAG`` fall back to an ordered scan, and a
  global monotone sequence number arbitrates between bucketed and
  wildcard candidates so the match order is *identical* to the linear
  engine's (MPI's non-overtaking rule).

Neither engine charges instructions — the paper-calibrated match-bit
costs are charged at issue time by the devices; the engines differ
only in real-Python wall-clock behaviour.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict, deque
from typing import Callable, Optional

from repro.consts import ANY_SOURCE, ANY_TAG
from repro.runtime.completion import (add_abort_listener,
                                      remove_abort_listener)
from repro.runtime.hooks import make_lock, race_key
from repro.runtime.message import Envelope, Message
from repro.runtime.request import Request


class PostedRecv:
    """The one receive descriptor: what a receive matches on, where its
    message lands, and — once posted — its place in the queues (it is
    the bucket-deque / wildcard-list element itself).

    A match runs ``land(posted, msg)`` on the *depositing* thread:
    the devices pass the one landing function
    (:func:`repro.core.ch4.land_recv`), which unpacks into ``buf`` /
    ``count`` / ``datatype`` and completes ``request``; a descriptor
    built with an ``on_match(msg)`` hook instead (engine-level
    callers: the property tests, the probes) lands by running the
    hook.  ``concrete`` is True when the receive names an exact
    (src, tag) — the O(1) bucketed path; wildcards take the
    ordered-scan fallback.  ``seq`` (post order), ``removed`` (lazy
    deletion: matched or cancelled) and, in the sharded engine's
    wildcard registry, ``armed`` are the engine's, written under its
    locks.
    """

    __slots__ = ("ctx", "src", "tag", "nomatch", "request", "on_match",
                 "concrete", "buf", "count", "datatype", "land", "seq",
                 "removed", "armed")

    def __init__(self, ctx: int, src: int, tag: int, nomatch: bool,
                 request: Optional[Request] = None,
                 on_match: Optional[Callable[[Message], None]] = None,
                 buf=None, count: int = 0, datatype=None, land=None):
        self.ctx = ctx
        self.src = src
        self.tag = tag
        self.nomatch = nomatch
        self.request = request
        self.on_match = on_match
        self.concrete = src != ANY_SOURCE and tag != ANY_TAG
        self.buf = buf
        self.count = count
        self.datatype = datatype
        self.land = land if on_match is None else _run_hook
        self.removed = False

    def matches(self, env: Envelope) -> bool:
        """MPI-3.1 matching rule (or arrival-order rule when nomatch)."""
        if env.ctx != self.ctx or env.nomatch != self.nomatch:
            return False
        if self.nomatch:
            return True
        if self.src != ANY_SOURCE and self.src != env.src:
            return False
        if self.tag != ANY_TAG and self.tag != env.tag:
            return False
        return True


def _run_hook(posted: PostedRecv, msg: Message) -> None:
    posted.on_match(msg)


class _MatchingEngineBase:
    """Shared lock, counters, sync-send handshake, and probe loop."""

    #: Race-detector label of ``_lock`` (shards override to "shard").
    _LOCK_KIND = "engine"
    #: Monotone counters for introspection and tests (the sharded
    #: engine reads them as sums over its shards).
    n_deposited = n_matched_posted = n_matched_unexpected = 0

    def __init__(self, rank: int, hooks=None):
        self.rank = rank
        #: The rank's hook seam (None on a plain build).  Under a race
        #: detector the engine lock is instrumented and the queue
        #: mutations below are annotated accesses under ``_race_key``
        #: (per engine — shards are lock domains of their own), which
        #: is None otherwise.
        self._hooks = hooks
        self._race_key = race_key(hooks, "mq", rank, id(self))
        #: The engine lock — reentrant (landing -> ``complete`` ->
        #: a continuation may post on this engine again) and entered
        #: at C level on every ``post``/``deposit``.
        self._lock = make_lock(hooks, self._LOCK_KIND, f"mq{rank}",
                               reentrant=True)
        #: Condition over ``_lock`` for the one thing that sleeps on
        #: the engine, a blocking probe; entered through ``_lock``.
        self._cond = threading.Condition(self._lock)
        #: Threads blocked in :meth:`probe`: a deposit wakes the
        #: condition only when somebody is there to hear it.
        self._probers = 0

    def _note_mq_access(self) -> None:
        """Annotate one matching-queue mutation (callers hold
        ``_lock``, so the lockset half of TS401 certifies them)."""
        if self._race_key is not None:
            self._hooks.access(self._race_key, True,
                               f"rank {self.rank} matching queues")

    @staticmethod
    def _fire_sync(msg: Message, match_time_s: float) -> None:
        """Complete a synchronous-send handshake at *match_time_s*."""
        sync = msg.sync
        if sync is not None:
            sync.request.complete(match_time_s + sync.ack_latency_s)

    def _find_unexpected(self, probe: PostedRecv
                         ) -> Optional[tuple[Envelope, int]]:
        """First matching unexpected message, without consuming it.
        Called under the engine lock."""
        raise NotImplementedError

    def _abort_wake(self) -> None:
        with self._lock:
            self._cond.notify_all()

    def iprobe(self, ctx: int, src: int, tag: int,
               nomatch: bool = False) -> Optional[tuple[Envelope, int]]:
        """Nonblocking probe: ``(envelope, nbytes)`` of the first
        matching unexpected message, or None."""
        with self._lock:
            return self._find_unexpected(PostedRecv(ctx, src, tag, nomatch))

    def probe(self, ctx: int, src: int, tag: int, nomatch: bool = False,
              abort_event: threading.Event | None = None
              ) -> tuple[Envelope, int]:
        """Blocking probe (MPI_PROBE): wait for a matching unexpected
        message without receiving it; returns ``(envelope, nbytes)``.

        Deposits notify the engine condition, and a world abort wakes
        the wait immediately through its listener hook — the seed's
        behaviour of noticing the abort only after a 50 ms slice
        expired is gone (plain-Event abort flags are bridged by the
        foreign-event watcher, so no slice polling remains anywhere).
        """
        probe = PostedRecv(ctx, src, tag, nomatch)
        listening = (abort_event is not None
                     and add_abort_listener(abort_event, self._abort_wake))
        try:
            with self._lock:
                self._probers += 1
                try:
                    while True:
                        hit = self._find_unexpected(probe)
                        if hit is not None:
                            return hit
                        if abort_event is not None \
                                and abort_event.is_set():
                            from repro.runtime.world import WorldAborted
                            raise WorldAborted("world aborted in probe")
                        self._cond.wait()
                finally:
                    self._probers -= 1
        finally:
            if listening:
                remove_abort_listener(abort_event, self._abort_wake)


class LinearMatchingEngine(_MatchingEngineBase):
    """The seed engine: posted/unexpected as plain lists, O(n) scans.

    Kept as the executable reference the bucketed and sharded engines
    are verified against (``tests/test_matching_properties.py``); only
    tests construct it.  ``deposit`` / ``post`` / ``cancel_posted``
    keep :class:`BucketMatchingEngine`'s contract.
    """

    name = "linear"

    def __init__(self, rank: int, hooks=None):
        super().__init__(rank, hooks)
        self._posted: list[PostedRecv] = []
        self._unexpected: list[Message] = []

    # -- sender side --------------------------------------------------------

    def deposit(self, msg: Message) -> None:
        """Deliver *msg*: match a posted receive or queue as unexpected."""
        with self._lock:
            self._note_mq_access()
            self.n_deposited += 1
            for i, posted in enumerate(self._posted):
                if posted.matches(msg.env):
                    del self._posted[i]
                    self.n_matched_posted += 1
                    posted.land(posted, msg)
                    self._fire_sync(msg, msg.arrive_s)
                    return
            # Unmatched: the message outlives the sender's call, so a
            # zero-copy payload view must become owned bytes now (the
            # application may legally reuse its buffer after the send
            # completes).
            msg.own_data()
            self._unexpected.append(msg)
            if self._probers:
                self._cond.notify_all()

    # -- receiver side -------------------------------------------------------

    def post(self, posted: PostedRecv, now_s: float = 0.0) -> None:
        """Post a receive: match the oldest unexpected message first,
        else enqueue."""
        with self._lock:
            self._note_mq_access()
            for i, msg in enumerate(self._unexpected):
                if posted.matches(msg.env):
                    del self._unexpected[i]
                    self.n_matched_unexpected += 1
                    posted.land(posted, msg)
                    self._fire_sync(msg, max(now_s, msg.arrive_s))
                    return
            self._posted.append(posted)

    def _find_unexpected(self, probe: PostedRecv
                         ) -> Optional[tuple[Envelope, int]]:
        for msg in self._unexpected:
            if probe.matches(msg.env):
                return msg.env, msg.nbytes
        return None

    def cancel_posted(self, request: Request) -> bool:
        """Remove the posted receive owning *request*; True on success."""
        with self._lock:
            for i, posted in enumerate(self._posted):
                if posted.request is request:
                    del self._posted[i]
                    request.cancel()
                    return True
            return False

    # -- introspection --------------------------------------------------------

    def pending_counts(self) -> tuple[int, int]:
        """(posted, unexpected) queue depths — for tests and diagnostics."""
        with self._lock:
            return len(self._posted), len(self._unexpected)


#: Lazy-deletion compaction threshold for the ordered fallback lists.
_PRUNE_MIN = 32


class BucketMatchingEngine(_MatchingEngineBase):
    """MPICH-style bucketed queues: O(1) matching for concrete
    (ctx, src, tag) traffic, ordered-scan fallback for wildcards.

    One per-engine monotone counter stamps every posted receive
    (``seq``) and unexpected message (``order``); either is deleted
    lazily through ``removed``.  Concrete entries live in FIFO deques
    hashed on their full match key; wildcard receives (and the global
    arrival-order view of unexpected messages that they scan) live in
    ordered lists.  A match always takes the lowest-stamped candidate
    across both structures, which reproduces the linear engine's
    first-match-in-order semantics exactly.  Nomatch (§3.6) traffic is
    bucketed per context — arrival-order matching is a single deque
    operation.
    """

    name = "bucket"

    def __init__(self, rank: int, hooks=None):
        super().__init__(rank, hooks)
        #: Stamps post and arrival order (shards share their rank's).
        self._seq = itertools.count(1)
        # Posted receives.  A bucket is made by the append that misses
        # it (readers use ``.get``) and deleted by whoever empties it.
        self._posted_exact: dict[tuple[int, int, int],
                                 deque[PostedRecv]] = defaultdict(deque)
        self._posted_wild: list[PostedRecv] = []
        self._posted_wild_removed = 0
        self._posted_nomatch: dict[int, deque[PostedRecv]] = \
            defaultdict(deque)
        self._n_posted = 0
        # Unexpected messages.
        self._ux_exact: dict[tuple[int, int, int],
                             deque[Message]] = defaultdict(deque)
        self._ux_all: list[Message] = []
        self._ux_all_removed = 0
        self._ux_nomatch: dict[int, deque[Message]] = defaultdict(deque)
        self._n_ux = 0

    @staticmethod
    def _bucket_head(q: Optional[deque]):
        """First live entry of a bucket (dropping dead heads), or None."""
        if not q:
            return None
        while q and q[0].removed:
            q.popleft()
        return q[0] if q else None

    # -- sender side --------------------------------------------------------

    def deposit(self, msg: Message) -> None:
        """Deliver *msg*: match a posted receive or queue as unexpected.

        Runs in the sender's thread; the matched receive's landing
        (buffer unpack + request completion) therefore also runs here,
        mirroring how a real netmod completes a receive from its
        progress context.
        """
        with self._lock:
            if self._race_key is not None:
                self._note_mq_access()
            self.n_deposited += 1
            posted = self._take_posted_match(msg.env)
            if posted is not None:
                self.n_matched_posted += 1
                posted.land(posted, msg)
                if msg.sync is not None:
                    self._fire_sync(msg, msg.arrive_s)
                return
            self._add_unexpected(msg)
            if self._probers:   # only an unexpected message can end a probe
                self._cond.notify_all()

    def _take_posted_match(self, env: Envelope) -> Optional[PostedRecv]:
        """Pop the first-posted receive matching *env* (lock held)."""
        if env.nomatch:
            q = self._posted_nomatch.get(env.ctx)
            posted = self._bucket_head(q)
            if posted is None:
                return None
            q.popleft()
        else:
            key = (env.ctx, env.src, env.tag)
            exact_q = self._posted_exact.get(key)
            exact = self._bucket_head(exact_q)
            wild = None
            for p in self._posted_wild:
                if not p.removed and p.matches(env):
                    wild = p
                    break
            if exact is not None and (wild is None or exact.seq < wild.seq):
                posted = exact
                exact_q.popleft()
                if not exact_q:
                    del self._posted_exact[key]
            elif wild is not None:
                posted = wild
                self._posted_wild_removed += 1
                self._maybe_prune_wild()
            else:
                return None
        posted.removed = True
        self._n_posted -= 1
        request = posted.request
        if request is not None:
            request._posted = None   # the way back ends here
        return posted

    def _maybe_prune_wild(self) -> None:
        if (self._posted_wild_removed > _PRUNE_MIN
                and self._posted_wild_removed * 2 > len(self._posted_wild)):
            self._posted_wild = [p for p in self._posted_wild
                                 if not p.removed]
            self._posted_wild_removed = 0

    def _add_unexpected(self, msg: Message) -> None:
        # The message outlives the sender's call from here on: convert
        # a zero-copy payload view into owned bytes (MPI permits buffer
        # reuse once the send completes).  VCI shards inherit this.
        msg.own_data()
        msg.order = next(self._seq)
        msg.removed = False
        env = msg.env
        if env.nomatch:
            self._ux_nomatch[env.ctx].append(msg)
        else:
            self._ux_exact[env.ctx, env.src, env.tag].append(msg)
            self._ux_all.append(msg)
        self._n_ux += 1

    # -- receiver side -------------------------------------------------------

    def post(self, posted: PostedRecv, now_s: float = 0.0) -> None:
        """Post a receive: match the oldest unexpected message first
        (MPI requires unexpected-queue order), else enqueue.

        *now_s* is the posting rank's virtual time, used as the match
        time of any synchronous sender found in the unexpected queue.
        """
        with self._lock:
            if self._race_key is not None:
                self._note_mq_access()
            msg = self._take_unexpected_match(posted)
            if msg is not None:
                self.n_matched_unexpected += 1
                posted.land(posted, msg)
                if msg.sync is not None:
                    self._fire_sync(msg, max(now_s, msg.arrive_s))
                return
            self._enqueue_posted(posted)

    def _take_unexpected_match(self, posted: PostedRecv
                               ) -> Optional[Message]:
        """Pop the earliest-arrived matching message (lock held)."""
        if posted.nomatch:
            q = self._ux_nomatch.get(posted.ctx)
            msg = self._bucket_head(q)
            if msg is None:
                return None
            q.popleft()
        elif posted.concrete:
            key = (posted.ctx, posted.src, posted.tag)
            q = self._ux_exact.get(key)
            if q is None:   # the posted-first case: no call to learn it
                return None
            msg = self._bucket_head(q)
            if msg is None:
                return None
            q.popleft()
            if not q:
                del self._ux_exact[key]
            self._ux_all_removed += 1
            self._maybe_prune_ux_all()
        else:
            msg = self._peek_wild_ux(posted)
            if msg is None:
                return None
            self._ux_all_removed += 1
            self._maybe_prune_ux_all()
        msg.removed = True
        self._n_ux -= 1
        return msg

    def _peek_wild_ux(self, posted: PostedRecv) -> Optional[Message]:
        """Earliest-arrived message matching a wildcard *posted*,
        without consuming it (lock held; ordered scan)."""
        for msg in self._ux_all:
            if not msg.removed and posted.matches(msg.env):
                return msg
        return None

    def _maybe_prune_ux_all(self) -> None:
        if (self._ux_all_removed > _PRUNE_MIN
                and self._ux_all_removed * 2 > len(self._ux_all)):
            self._ux_all = [m for m in self._ux_all if not m.removed]
            self._ux_all_removed = 0

    def _enqueue_posted(self, posted: PostedRecv) -> None:
        posted.seq = next(self._seq)
        if posted.nomatch:
            self._posted_nomatch[posted.ctx].append(posted)
        elif posted.concrete:
            self._posted_exact[posted.ctx, posted.src,
                               posted.tag].append(posted)
        else:
            self._posted_wild.append(posted)
        if posted.request is not None:
            posted.request._posted = posted
        self._n_posted += 1

    def _find_unexpected(self, probe: PostedRecv
                         ) -> Optional[tuple[Envelope, int]]:
        if probe.nomatch:
            msg = self._bucket_head(self._ux_nomatch.get(probe.ctx))
        elif probe.concrete:
            key = (probe.ctx, probe.src, probe.tag)
            msg = self._bucket_head(self._ux_exact.get(key))
        else:
            msg = self._peek_wild_ux(probe)
        if msg is None:
            return None
        return msg.env, msg.nbytes

    def cancel_posted(self, request: Request) -> bool:
        """Remove the posted receive owning *request*; True on success.

        O(1) through the request's back-pointer (the linear engine
        scans)."""
        with self._lock:
            posted = request._posted
            if posted is None:
                return False
            posted.removed = True
            self._n_posted -= 1
            request._posted = None
            if not posted.nomatch and not posted.concrete:
                self._posted_wild_removed += 1
                self._maybe_prune_wild()
            request.cancel()
            return True

    # -- introspection --------------------------------------------------------

    def pending_counts(self) -> tuple[int, int]:
        """(posted, unexpected) queue depths — for tests and diagnostics."""
        with self._lock:
            return self._n_posted, self._n_ux


#: The engine of a one-VCI rank (MPICH bucketed-queue design).
MatchingEngine = BucketMatchingEngine


def build_engine(rank: int, vci_map, hooks=None) -> _MatchingEngineBase:
    """The matching engine of a rank whose operations *vci_map* (the
    rank's :class:`repro.runtime.vci.VCIMap`) spreads over VCIs: the
    bucketed engine for one VCI — the byte-identical calibrated
    default — and the per-VCI sharded engine
    (:class:`repro.runtime.vci.VCIShardedEngine`) for more.  *hooks*
    (the rank's seam, or None) instruments every engine lock when the
    world runs the race detector.
    """
    if vci_map.num_vcis > 1:
        from repro.runtime.vci import VCIShardedEngine
        return VCIShardedEngine(rank, vci_map, hooks)
    return BucketMatchingEngine(rank, hooks)
