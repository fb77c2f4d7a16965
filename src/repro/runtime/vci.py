"""Virtual communication interfaces: per-VCI locks, matching shards,
completion segments, and injection lanes.

The paper charges every MPI call for the thread-safety critical
section (Table 1 row 2); the runtime used to *realize* that CS as one
per-rank lock (``Proc.cs_lock``), which serializes every concurrent
MPI call a rank's threads make — MPI_THREAD_MULTIPLE throughput stays
flat no matter how many application threads inject.  MPICH's answer
(Zambre et al., "How I Learned to Stop Worrying About User-Visible
Endpoints and Love MPI"; Zhou et al., "MPI Progress For All") is to
shard communication state into **virtual communication interfaces**:
each VCI bundles its own lock, matching queues, completion segment,
and netmod injection state, and operations are hashed onto VCIs so
threads working on disjoint (communicator, peer, tag) streams never
contend.

This module provides the three pieces:

* :class:`VCI` — one interface: the lock (published as ``.lock``; the
  ``lock`` attribute name is the marker the FP303 audit rule uses to
  recognize the per-VCI lock family), a completion segment, and
  injection/CS occupancy counters.
* :class:`VCIMap` — the MPICH-style mapper hashing
  ``(context_id, peer, tag)`` to a VCI index.
* :class:`VCIShardedEngine` — a rank-level matching engine built from
  per-VCI :class:`~repro.runtime.matching.BucketMatchingEngine`
  shards, implementing the documented all-VCI wildcard discipline
  below.

Charging is untouched by everything here: VCIs change only which
*real-Python* lock a call takes and which shard its matching state
lives in.  ``num_vcis=1`` builds the plain single-engine runtime and
is byte-identical in charged instruction counts to the calibrated
221/215 fast paths.

Wildcard discipline (the all-VCI protocol)
------------------------------------------

Concrete receives and all sends are routed to exactly one shard by
:class:`VCIMap`; both sides of a match hash the same key
``(ctx, sender's comm rank, tag)``, so a concrete pair always meets in
one shard under one shard lock.  ``MPI_ANY_SOURCE``/``MPI_ANY_TAG``
receives can match traffic on *every* shard, and are handled by a
rank-level wildcard registry:

1. **Register.** The posting thread stamps the receive with a global
   sequence number, appends it — the descriptor itself, *unarmed* —
   to the registry under ``_wild_lock`` and snapshots the deposit
   epoch.  Deposits ignore unarmed records.
2. **Scan.** It then scans every shard — one shard lock at a time,
   never two — for the minimum-sequence matching unexpected message.
3. **Consume.** If the scan found one, it re-locks the winning shard,
   then nests ``_wild_lock`` to atomically claim both sides (the
   registry record, unless a concurrent cancel claimed it first, and
   the unexpected entry, unless a concurrent receive consumed it).
   A lost entry means rescan.
4. **Arm.** If the scan found nothing, the poster checks the deposit
   epoch under ``_wild_lock``: unchanged means no message arrived
   anywhere during the scan, so the record is atomically *armed* and
   the post returns; a changed epoch means rescan.

Every deposit that fails posted matching bumps the epoch under
``_wild_lock`` *before* inserting the message (both steps inside the
shard lock), so the poster's stability check has no lost-update
window.  Deposits that find both an exact posted receive and an armed
wildcard take the lower global sequence number — exactly the linear
reference engine's first-posted-wins order, preserving MPI
non-overtaking.

Lock ordering (enforced by the FP303 lint): a thread holds at most
one VCI/shard lock at a time; ``_wild_lock`` only ever nests *inside*
a shard lock, never around one; two shard locks are never held
together.
"""

from __future__ import annotations

import itertools
import threading
from typing import Optional

from repro.runtime.completion import (CompletionSegment,
                                      add_abort_listener,
                                      remove_abort_listener)
from repro.runtime.hooks import make_lock
from repro.runtime.matching import (BucketMatchingEngine, PostedRecv,
                                    _MatchingEngineBase)
from repro.runtime.message import Envelope, Message
from repro.runtime.request import Request

#: Mixing constants (Fibonacci/Murmur-style) for the VCI hash; the mix
#: is deterministic across runs so traces and tests are stable.
_MIX_CTX = 0x9E3779B1
_MIX_PEER = 0x85EBCA77
_MIX_TAG = 0xC2B2AE3D

#: Lazy-deletion compaction threshold for the wildcard registry.
_WILD_PRUNE_MIN = 32


class VCI:
    """One virtual communication interface.

    Bundles the per-VCI critical-section lock (``.lock`` — the name is
    the FP303 family marker; internal registry/engine locks use
    underscored names precisely to stay outside that family), a
    :class:`~repro.runtime.completion.CompletionSegment`, and netmod
    injection counters.  A matching shard is attached when the rank
    runs a :class:`VCIShardedEngine`.

    Counts here are observational: nothing a VCI records changes
    charged instruction totals.
    """

    def __init__(self, index: int, hooks=None):
        self.index = index
        #: The modeled critical-section lock (same reentrant semantics
        #: as the old per-rank ``Proc.cs_lock``, which is now an alias
        #: of VCI 0's lock).  Detector-instrumented (kind "vci") when
        #: the rank's seam has a race detector.
        self.lock = make_lock(hooks, "vci", f"vci{index}", reentrant=True)
        self.completion = CompletionSegment(index, hooks)
        #: Netmod injections issued through this VCI's lane.
        self.n_injected = 0
        #: ... of which took the active-message fallback.
        self.n_am = 0
        #: Modeled-CS entries routed through this VCI by ``mpi_entry``.
        self.cs_entries = 0
        #: Charged instructions spent inside those CS entries.
        self.cs_instructions = 0

    def note_injection(self, native: bool) -> None:
        """Record one netmod injection issued on this VCI's lane."""
        with self.lock:
            self.n_injected += 1
            if not native:
                self.n_am += 1

    def note_cs(self, instructions: int) -> None:
        """Record one modeled-CS entry and its charged instructions."""
        with self.lock:
            self.cs_entries += 1
            self.cs_instructions += instructions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VCI({self.index}, injected={self.n_injected})"


class VCIMap:
    """MPICH-style operation-to-VCI mapper: mixes context, peer and
    tag, which spreads independent streams maximally.

    Both sides of a match must agree: deposits hash the envelope's
    ``(ctx, sender comm rank, tag)`` and concrete receives hash
    ``(ctx, source, tag)`` — the same values.  Send-side critical
    sections hash the *destination* (a lock choice only; it never
    affects where matching state lives).  Nomatch (§3.6) traffic
    always maps by context alone, preserving per-context arrival
    order.  Wildcard receives are never mapped — they take the
    all-VCI discipline (and route their modeled CS to VCI 0).
    """

    def __init__(self, num_vcis: int = 1):
        if num_vcis < 1:
            raise ValueError(f"num_vcis must be >= 1, got {num_vcis}")
        self.num_vcis = num_vcis

    def index_for(self, ctx: int, peer: int, tag: int) -> int:
        """The VCI owning the concrete ``(ctx, peer, tag)`` stream."""
        n = self.num_vcis
        if n == 1:
            return 0
        mix = ctx * _MIX_CTX ^ peer * _MIX_PEER ^ tag * _MIX_TAG
        return (mix >> 8) % n

    def nomatch_index(self, ctx: int) -> int:
        """The VCI owning a context's arrival-order (§3.6) stream."""
        if self.num_vcis == 1:
            return 0
        return ((ctx * _MIX_CTX) >> 8) % self.num_vcis

    def shard_of_client(self, client_id: int) -> int:
        """Deterministic VCI shard for one dynamic client's request
        stream.  The endpoints service tags each client's traffic with
        a per-client tag and answers on the same stream, so this is
        both the service's load-balancing decision and the
        ``vci_of_thread`` input of the occupancy model in
        :mod:`repro.perf.msgrate` — the same mixer the concrete
        ``(ctx, peer, tag)`` hash uses, applied to the client id."""
        if self.num_vcis == 1:
            return 0
        return ((client_id * _MIX_PEER) >> 8) % self.num_vcis


class _ShardEngine(BucketMatchingEngine):
    """One VCI's matching shard.

    A :class:`~repro.runtime.matching.BucketMatchingEngine` whose
    sequence numbers come from the rank-level counter (so arbitration
    across shards and the wildcard registry is globally ordered) and
    whose deposit path consults the owner's wildcard registry.
    """

    name = "vci-shard"
    _LOCK_KIND = "shard"

    def __init__(self, rank: int, owner: "VCIShardedEngine", vci: VCI,
                 hooks=None):
        super().__init__(rank, hooks)
        self._owner = owner
        self._vci = vci
        # next() on itertools.count is atomic under CPython's GIL.
        self._seq = owner._seq_counter

    # -- posted-queue peek/pop (deposit-side arbitration) ------------------

    def _peek_posted(self, env: Envelope) -> Optional[PostedRecv]:
        """Head posted receive of *env*'s bucket, or None (lock held)."""
        if env.nomatch:
            return self._bucket_head(self._posted_nomatch.get(env.ctx))
        key = (env.ctx, env.src, env.tag)
        return self._bucket_head(self._posted_exact.get(key))

    def _pop_posted(self, env: Envelope, posted: PostedRecv) -> None:
        """Consume *posted*, previously peeked for *env* (lock held)."""
        if env.nomatch:
            self._posted_nomatch[env.ctx].popleft()
        else:
            key = (env.ctx, env.src, env.tag)
            q = self._posted_exact[key]
            q.popleft()
            if not q:
                del self._posted_exact[key]
        posted.removed = True
        self._n_posted -= 1
        if posted.request is not None:
            posted.request._posted = None

    # -- sender side -------------------------------------------------------

    def deposit(self, msg: Message) -> None:
        """Deliver *msg* into this shard, arbitrating against the
        rank-level wildcard registry.

        The exact posted candidate (this shard) and the minimum-
        sequence armed wildcard (registry, under nested ``_wild_lock``)
        compete on global sequence number — first posted wins, exactly
        as in the unsharded engines.  A message that matches nothing
        bumps the deposit epoch under ``_wild_lock`` *before* being
        inserted as unexpected, closing the wildcard-poster's
        scan/arm race.
        """
        owner = self._owner
        with self._lock:
            self._note_mq_access()
            self.n_deposited += 1
            env = msg.env
            posted = self._peek_posted(env)
            wild = None
            if not env.nomatch and owner._n_wild:
                with owner._wild_lock:
                    owner._note_wild_access()
                    rec = owner._min_armed_match(env)
                    if rec is not None and (posted is None
                                            or rec.seq < posted.seq):
                        owner._claim_wild(rec)
                        wild = rec
            if wild is not None:
                posted = wild
            elif posted is not None:
                self._pop_posted(env, posted)
            if posted is not None:
                self.n_matched_posted += 1
                posted.land(posted, msg)
                self._vci.completion.note("recv", msg.arrive_s)
                self._fire_sync(msg, msg.arrive_s)
                if self._probers:
                    self._cond.notify_all()
                return
            with owner._wild_lock:
                owner._note_wild_access()
                owner._ux_epoch += 1
                owner._wild_lock.notify_all()
            self._add_unexpected(msg)
            if self._probers:
                self._cond.notify_all()

    # -- receiver side -----------------------------------------------------

    def _take_unexpected_match(self, posted: PostedRecv):
        """Base unexpected-match pop, plus the completion-segment note
        (the posted-match and wildcard paths note theirs in
        :meth:`deposit` / the owner's consume step)."""
        msg = super()._take_unexpected_match(posted)
        if msg is not None:
            self._vci.completion.note("recv", msg.arrive_s)
        return msg

    # -- wildcard-post support (called by the owner) -----------------------

    def _consume_ux(self, msg: Message) -> None:
        """Consume a previously peeked unexpected message (lock held)."""
        msg.removed = True
        self._n_ux -= 1
        self._ux_all_removed += 1
        self._maybe_prune_ux_all()
        self.n_matched_unexpected += 1


class VCIShardedEngine(_MatchingEngineBase):
    """The rank-level matching engine for ``num_vcis > 1`` builds.

    Owns one :class:`VCI` (lock + completion segment + injection lane)
    and one :class:`_ShardEngine` per interface, routes concrete and
    nomatch traffic through :class:`VCIMap`, and implements the
    module-level wildcard discipline.  Exposes the same interface as
    the unsharded engines (``deposit``/``post``/``iprobe``/``probe``/
    ``cancel_posted``/``pending_counts`` plus the monotone counters),
    so every consumer — devices, probes, teardown reports, property
    tests — works unchanged.
    """

    name = "vci-sharded"

    def __init__(self, rank: int, vci_map: VCIMap, hooks=None):
        super().__init__(rank, hooks)
        if vci_map.num_vcis < 2:
            raise ValueError(
                f"VCIShardedEngine needs num_vcis >= 2, got "
                f"{vci_map.num_vcis} (num_vcis=1 builds the plain engine)")
        #: The owning rank's mapper, shared with ``Proc.vci_for`` so a
        #: stream's lock and its matching shard are one VCI.
        self.vci_map = vci_map
        self.vcis = [VCI(i, hooks) for i in range(vci_map.num_vcis)]
        self._seq_counter = itertools.count(1)
        self._shards = [_ShardEngine(rank, self, vci, hooks)
                        for vci in self.vcis]
        #: Rank-level wildcard registry; deliberately *not* named
        #: ``.lock`` — it is outside the FP303 per-VCI lock family and
        #: only ever nests inside a shard lock (see module docstring).
        self._wild_lock = threading.Condition(
            make_lock(hooks, "wild", f"wild{rank}", reentrant=True))
        self._wild: list[PostedRecv] = []
        self._wild_removed = 0
        self._n_wild = 0
        self._ux_epoch = 0
        #: Diagnostic: how often a wildcard post had to rescan.
        self.n_wild_rescans = 0

    # -- counters (aggregated across shards) -------------------------------

    @property
    def n_deposited(self) -> int:                     # type: ignore[override]
        """Messages deposited, summed across all shards."""
        return sum(s.n_deposited for s in self._shards)

    @property
    def n_matched_posted(self) -> int:                # type: ignore[override]
        """Deposits matched against posted receives, across shards."""
        return sum(s.n_matched_posted for s in self._shards)

    @property
    def n_matched_unexpected(self) -> int:            # type: ignore[override]
        """Receives matched from unexpected queues, across shards."""
        return sum(s.n_matched_unexpected for s in self._shards)

    # -- routing -----------------------------------------------------------

    def shard_index_for(self, ctx: int, peer: int, tag: int,
                        nomatch: bool = False) -> int:
        """Public routing query (benchmarks and tests use this)."""
        if nomatch:
            return self.vci_map.nomatch_index(ctx)
        return self.vci_map.index_for(ctx, peer, tag)

    def _shard_for(self, key) -> _ShardEngine:
        """The shard owning *key*'s stream — an :class:`Envelope`, or a
        concrete / nomatch :class:`PostedRecv` (same four fields)."""
        return self._shards[self.shard_index_for(key.ctx, key.src, key.tag,
                                                 key.nomatch)]

    # -- sender side -------------------------------------------------------

    def deposit(self, msg: Message) -> None:
        """Deliver *msg* to its owning shard (envelope-hashed)."""
        self._shard_for(msg.env).deposit(msg)

    # -- receiver side -----------------------------------------------------

    def post(self, posted: PostedRecv, now_s: float = 0.0) -> None:
        """Post a receive: concrete/nomatch posts go to their shard;
        wildcards take the registry discipline."""
        if posted.nomatch or posted.concrete:
            self._shard_for(posted).post(posted, now_s)
        else:
            self._post_wildcard(posted, now_s)

    def _note_wild_access(self) -> None:
        """Annotate one wildcard-registry mutation (callers hold
        ``_wild_lock``, so the lockset half of TS401 certifies them)."""
        if self._race_key is not None:
            self._hooks.access(("wild", self.rank, id(self)), True,
                               f"rank {self.rank} wildcard registry")

    def _post_wildcard(self, posted: PostedRecv, now_s: float) -> None:
        """Register -> scan -> consume-or-arm (module docstring)."""
        posted.seq = next(self._seq_counter)
        #: Deposits may only match an *armed* record (step 4).
        posted.armed = False
        with self._wild_lock:
            self._note_wild_access()
            self._wild.append(posted)
            self._n_wild += 1
            epoch = self._ux_epoch
        while True:
            best = None
            best_shard = None
            for shard in self._shards:
                with shard._lock:
                    msg = shard._peek_wild_ux(posted)
                if msg is not None and (best is None
                                        or msg.order < best.order):
                    best = msg
                    best_shard = shard
            if best is not None:
                claimed = False
                with best_shard._lock:
                    with self._wild_lock:
                        self._note_wild_access()
                        if posted.removed:
                            return  # lost to a concurrent cancel
                        if not best.removed:
                            self._claim_wild(posted)
                            claimed = True
                    if claimed:
                        best_shard._consume_ux(best)
                        posted.land(posted, best)
                        best_shard._vci.completion.note("recv",
                                                        best.arrive_s)
                        best_shard._fire_sync(best,
                                              max(now_s, best.arrive_s))
                        return
                # The entry was consumed between scan and claim; rescan.
                with self._wild_lock:
                    if posted.removed:
                        return
                    self.n_wild_rescans += 1
                    epoch = self._ux_epoch
                continue
            with self._wild_lock:
                if posted.removed:
                    return
                if self._ux_epoch == epoch:
                    posted.armed = True
                    return
                self.n_wild_rescans += 1
                epoch = self._ux_epoch

    # -- wildcard registry (all under _wild_lock) --------------------------

    def _min_armed_match(self, env: Envelope) -> Optional[PostedRecv]:
        """First (lowest-sequence) armed live wildcard matching *env*;
        the registry list is append-ordered, hence seq-ordered.
        Called under ``_wild_lock``."""
        for posted in self._wild:
            if not posted.removed and posted.armed and posted.matches(env):
                return posted
        return None

    def _claim_wild(self, posted: PostedRecv) -> None:
        """*posted* is spoken for, matched or cancelled: retire it from
        the registry (``_wild_lock`` held)."""
        posted.removed = True
        self._n_wild -= 1
        self._wild_removed += 1
        if (self._wild_removed > _WILD_PRUNE_MIN
                and self._wild_removed * 2 > len(self._wild)):
            self._wild = [p for p in self._wild if not p.removed]
            self._wild_removed = 0

    # -- probe -------------------------------------------------------------

    def _scan_probe(self, probe: PostedRecv):
        """One sweep over the relevant shards; shard locks taken one at
        a time."""
        if probe.nomatch or probe.concrete:
            shard = self._shard_for(probe)
            with shard._lock:
                return shard._find_unexpected(probe)
        best = None
        for shard in self._shards:
            with shard._lock:
                msg = shard._peek_wild_ux(probe)
            if msg is not None and (best is None or msg.order < best.order):
                best = msg
        return None if best is None else (best.env, best.nbytes)

    def iprobe(self, ctx: int, src: int, tag: int,
               nomatch: bool = False) -> Optional[tuple[Envelope, int]]:
        """Nonblocking probe across the owning shard(s)."""
        return self._scan_probe(PostedRecv(ctx, src, tag, nomatch))

    def _abort_wake(self) -> None:
        with self._wild_lock:
            self._wild_lock.notify_all()

    def probe(self, ctx: int, src: int, tag: int, nomatch: bool = False,
              abort_event: threading.Event | None = None
              ) -> tuple[Envelope, int]:
        """Blocking probe: scan, then wait on the deposit epoch.

        Every unexpected insertion (on any shard) bumps the epoch and
        notifies ``_wild_lock``, so the epoch-unchanged check under the
        same lock makes the scan/wait sequence lost-wakeup-free.
        """
        probe = PostedRecv(ctx, src, tag, nomatch)
        listening = (abort_event is not None
                     and add_abort_listener(abort_event, self._abort_wake))
        try:
            while True:
                with self._wild_lock:
                    epoch = self._ux_epoch
                hit = self._scan_probe(probe)
                if hit is not None:
                    return hit
                if abort_event is not None and abort_event.is_set():
                    from repro.runtime.world import WorldAborted
                    raise WorldAborted("world aborted in probe")
                with self._wild_lock:
                    if self._ux_epoch == epoch:
                        self._wild_lock.wait()
        finally:
            if listening:
                remove_abort_listener(abort_event, self._abort_wake)

    # -- cancel ------------------------------------------------------------

    def cancel_posted(self, request: Request) -> bool:
        """Remove the posted receive owning *request*; True on success.

        A concrete receive is found through the request's back-pointer
        and retired by the shard it was routed to; a wildcard by
        claiming it in the registry (which also wins any race against
        an in-flight all-VCI scan — the poster checks the claim before
        consuming)."""
        posted = request._posted   # re-read by the shard, under its lock
        if posted is not None:
            return self._shard_for(posted).cancel_posted(request)
        with self._wild_lock:
            self._note_wild_access()
            for posted in self._wild:
                if not posted.removed and posted.request is request:
                    self._claim_wild(posted)
                    break
            else:
                return False
        request.cancel()
        return True

    # -- introspection -----------------------------------------------------

    def pending_counts(self) -> tuple[int, int]:
        """(posted, unexpected) depths summed across shards plus the
        live wildcard registry."""
        posted = 0
        unexpected = 0
        for shard in self._shards:
            p, u = shard.pending_counts()
            posted += p
            unexpected += u
        with self._wild_lock:
            posted += self._n_wild
        return posted, unexpected

    def per_vci_counts(self) -> list[tuple[int, int]]:
        """Per-shard (posted, unexpected) depths — teardown reports."""
        return [shard.pending_counts() for shard in self._shards]
