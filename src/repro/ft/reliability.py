"""The reliability protocol and world-level failure state.

This is the layer a real transport carries below the MPI device (the
InfiniBand MPICH2 port implemented ack/retransmit under the ADI the
same way): per-peer sequence numbers, payload checksums, piggybacked
cumulative acks, receiver-side dedup/reorder windows, and
timeout-driven retransmission with exponential backoff.  It intercepts
messages at :meth:`repro.runtime.proc.Proc.deliver` — *after* the
device fast path has charged its calibrated instructions — so the
221/215 isend/put paths are untouched and the protocol's own work is
charged under ``Category.RELIABILITY`` via the ``COSTS.reliability``
cost group.

Because this substrate is single-address-space (the sending thread
runs the receiver-side protocol code synchronously), every charge —
including the receiver's dedup/reorder window work — lands on the
*origin* rank's counter, the same convention the AM handler overhead
uses.  Retransmission timeouts advance only the message's virtual
arrival time, never wall-clock time.

Locking: sender-side state (sequence counters, statistics) is touched
only by the owning rank's thread and needs no lock — except the
reorder stash, which the background progress engine's timer scan also
reads, so stash inserts/pops are guarded by ``_tx_mu`` (never held
across a push); receiver-side window state is guarded by the
receiving rank's ``_mu``.  A sender never holds its own ``_mu`` (or
``_tx_mu``) while calling into a peer, so the only cross-rank chain
is ``_mu(dest) -> engine(dest)``, which is acyclic.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import MPIErrProcFailed, MPIErrRevoked
from repro.ft.plan import FaultPlan, WireFate
from repro.ft.recovery import RankKilled, dispatch_comm_error
from repro.instrument.categories import Category
from repro.instrument.costs import COSTS

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.message import Message
    from repro.runtime.proc import Proc
    from repro.runtime.request import Request
    from repro.runtime.world import World

#: Pending-receive list is pruned of completed entries past this size.
_PRUNE_THRESHOLD = 64


class WorldFaults:
    """World-global failure state: dead ranks, revoked contexts, and the
    rendezvous used by the ``MPIX_Comm_*`` recovery collectives.

    One instance per :class:`~repro.runtime.world.World` built with a
    ``fault_plan``; each rank binds a :class:`RankFaults` view.
    """

    def __init__(self, world: "World", plan: FaultPlan):
        self.world = world
        self.plan = plan
        self._cv = threading.Condition()
        #: World ranks the plan has killed.
        self.dead: set[int] = set()
        #: Revoked communicator context ids.
        self.revoked: set[int] = set()
        #: Rendezvous slots: key -> {rank: payload}.
        self._slots: dict[object, dict[int, object]] = {}
        #: Memoized rendezvous results (computed once per key).
        self._results: dict[object, object] = {}
        #: Derived-context registry: parent ctx -> child ctx ids.
        #: Hierarchical collectives stage phases over internal
        #: subcommunicators; registering those here lets a revoke of
        #: the parent cascade, so no rank stays blocked on a child
        #: context the revoke never named.
        self._derived: dict[int, set[int]] = {}

    def rank_view(self, proc: "Proc") -> "RankFaults":
        """The per-rank protocol state bound to *proc*."""
        return RankFaults(proc, self, self.plan)

    # -- failure state -----------------------------------------------------

    def is_dead(self, world_rank: int) -> bool:
        """Has *world_rank* been killed?  Lock-free read: set membership
        is atomic in CPython and a stale False only defers detection to
        the retransmission path."""
        return world_rank in self.dead

    def mark_dead(self, world_rank: int) -> None:
        """Record *world_rank* as dead and fail every pending receive
        posted against it, on every surviving rank."""
        with self._cv:
            if world_rank in self.dead:
                return
            self.dead.add(world_rank)
            self._cv.notify_all()
        for p in self.world.procs:
            if p.world_rank != world_rank:
                p.hooks.faults.fail_pending(world_rank)

    # -- revocation --------------------------------------------------------

    def add_derived(self, parent_ctx: int, child_ctx: int) -> None:
        """Register *child_ctx* as internally derived from
        *parent_ctx*: a later :meth:`revoke` of the parent cascades to
        it (and transitively to its own children).  The hierarchical
        collectives register their node-local/leader subcommunicator
        contexts here, so a rank blocked inside a staged phase is
        interrupted by the parent's revocation instead of hanging."""
        with self._cv:
            self._derived.setdefault(parent_ctx, set()).add(child_ctx)

    def revoke(self, ctx: int) -> None:
        """Mark communicator context *ctx* revoked (ULFM revoke:
        propagates to every rank, since the set is world-global) and
        interrupt every pending receive posted on it — revocation must
        reach ranks blocked inside a receive, or they would never make
        the MPI call that notices the revoked flag and so never join
        the recovery collective.  Cascades to every context registered
        as derived from *ctx* (transitively)."""
        with self._cv:
            targets = {ctx}
            frontier = [ctx]
            while frontier:
                for child in self._derived.get(frontier.pop(), ()):
                    if child not in targets:
                        targets.add(child)
                        frontier.append(child)
            self.revoked.update(targets)
            self._cv.notify_all()
        for ctx_id in sorted(targets):
            for p in self.world.procs:
                p.hooks.faults.fail_pending_revoked(ctx_id)

    def is_revoked(self, ctx: int) -> bool:
        """Has context *ctx* been revoked?"""
        return ctx in self.revoked

    # -- recovery rendezvous -----------------------------------------------

    def rendezvous(self, key: object, rank: int, members: Sequence[int],
                   payload: object = None,
                   reducer: Optional[Callable[[dict], object]] = None,
                   ) -> object:
        """Fault-aware barrier + reduce for the recovery collectives.

        Every *alive* member of *members* deposits a payload under
        *key* and blocks until all alive members have arrived (ranks
        that die while we wait are excluded on the next wakeup — this
        is what lets ``MPIX_Comm_shrink`` complete without the dead
        rank).  The first completer runs *reducer* over the collected
        payloads; everyone returns the memoized result.
        """
        me = self.world.proc(rank).hooks.faults
        dying = False
        with self._cv:
            slot = self._slots.setdefault(key, {})
            slot[rank] = payload
            self._cv.notify_all()
            while True:
                alive = [m for m in members if m not in self.dead]
                if all(m in slot for m in alive):
                    break
                if self.world.abort_event.is_set():
                    # Imported lazily: repro.runtime.world imports
                    # BuildConfig, whose module imports repro.ft.plan.
                    from repro.runtime.world import WorldAborted
                    raise WorldAborted(
                        "world aborted during MPIX recovery rendezvous")
                if me is not None and me.kill_pending():
                    # This rank's plan kill became due *while it waited
                    # inside the recovery collective*: withdraw its
                    # deposit and die here, instead of contributing to
                    # an agreement it should not survive to see.
                    slot.pop(rank, None)
                    dying = True
                    break
                self._cv.wait(0.05)
                # A recovery collective may be everyone's only live
                # code path — keep the heartbeat roster scanned so a
                # member that vanished mid-recovery is confirmed dead
                # (which is what unblocks this very loop).  The tick's
                # confirmation path retakes ``_cv`` (mark_dead), so it
                # must run with it released.
                detector = self.world.detector
                if detector is not None:
                    self._cv.release()
                    try:
                        detector.maybe_tick()
                    finally:
                        self._cv.acquire()
            if not dying:
                if key not in self._results:
                    self._results[key] = (
                        reducer({m: slot[m] for m in alive})
                        if reducer is not None else None)
                result = self._results[key]
        if dying:
            # mark_dead retakes the (non-reentrant) condition variable
            # and runs communicator error handlers — strictly outside
            # the critical section above.  Its notify wakes the
            # surviving members, who recompute the alive set and
            # complete the rendezvous without this rank.
            self.mark_dead(rank)
            raise RankKilled(
                f"rank {rank} killed by fault plan during a recovery "
                "rendezvous")
        return result


class RankFaults:
    """Per-rank view of the fault-tolerant transport.

    Owns the rank's sender-side protocol state (per-peer sequence
    counters, the wire's reorder stash) and its receiver-side window
    state (expected sequence numbers, out-of-order buffers), plus the
    list of pending receives used to surface ``MPI_ERR_PROC_FAILED``
    when a peer dies.
    """

    def __init__(self, proc: "Proc", world_ft: WorldFaults, plan: FaultPlan):
        self.proc = proc
        self.world_ft = world_ft
        self.plan = plan
        from repro.runtime.hooks import make_lock
        #: The rank's seam, which builds this view.
        self.hooks = hooks = proc.hooks
        #: Guards receiver-side window state and the pending-recv list.
        self._mu = make_lock(hooks, "ft", f"ftwin{proc.world_rank}")
        # Sender-side (owning thread only; unguarded by design), except
        # the reorder stash below.
        self._next_seq: dict[int, int] = {}
        self._rma_seq: dict[int, int] = {}
        #: Guards the reorder stash only — shared with the background
        #: progress engine's timer scan; never held across a push.
        self._tx_mu = make_lock(hooks, "tx", f"ftstash{proc.world_rank}")
        #: The wire's single-slot reorder stash per destination:
        #: ``dest -> (seq, msg, retransmit_deadline)``, a packet
        #: "overtaken" by the next one, stamped with the virtual time
        #: at which its retransmit timer expires.  Flushed by the next
        #: send to that peer, by posting any receive (the rank is
        #: about to block), at rank exit (:meth:`drain`), and — under
        #: a progress build — by the engine's virtual-clock timer scan
        #: (:meth:`drain` with ``now``), so a quiescent sender cannot
        #: strand a packet forever *even if it never calls into MPI
        #: again*.
        self._held: dict[int, tuple[int, "Message", float]] = {}
        self.n_sends = 0
        self._killed = False
        # Receiver-side (under _mu).
        self._expected: dict[int, int] = {}
        self._ooo: dict[int, dict[int, "Message"]] = {}
        self._pending_recvs: list[tuple["Request", int, object]] = []
        # Statistics for the benchmark and the property tests.
        self.n_retransmits = 0
        self.n_dup_dropped = 0
        self.n_ooo_buffered = 0
        self.n_delayed = 0

    # -- helpers -----------------------------------------------------------

    def _observe(self, fate: WireFate) -> None:
        """Tally *fate* on this rank and the faulty netmod (if built)."""
        if fate.delay:
            self.n_delayed += 1
        # Imported lazily: repro.ft.injection needs the netmod package,
        # which must be importable before this module settles.
        from repro.ft.injection import FaultyNetmod
        netmod = getattr(self.proc.device, "netmod", None)
        if isinstance(netmod, FaultyNetmod):
            netmod.observe(fate)

    def _survive_wire(self, dest: int, seq: int, op: str,
                      ) -> tuple[float, WireFate]:
        """Run transmission attempts of packet *seq* to *dest* until one
        survives the wire; returns (accumulated backoff delay, the
        surviving fate).  A dead peer never acks, so its attempts are
        forced losses; exhausting ``max_retries`` raises
        ``MPI_ERR_PROC_FAILED`` against the peer.
        """
        r = COSTS.reliability
        proc = self.proc
        plan = self.plan
        attempt = 0
        delay = 0.0
        while True:
            fate = plan.fate(proc.world_rank, dest, seq, attempt)
            if not self.world_ft.is_dead(dest):
                self._observe(fate)
                if not fate.lost:
                    return delay, fate
            attempt += 1
            self.n_retransmits += 1
            proc.charge(Category.RELIABILITY, r.retransmit)
            delay += plan.backoff_s(attempt)
            if attempt > plan.max_retries:
                raise MPIErrProcFailed(
                    f"no acknowledgement from rank {dest} after "
                    f"{attempt} transmission attempts",
                    rank=dest, op=op)

    def _push(self, dest: int, seq: int, msg: "Message") -> None:
        """Hand one surviving packet to the destination's window."""
        proc = self.proc
        proc.world.proc(dest).hooks.faults.accept_packet(
            proc, proc.world_rank, seq, msg)

    def _note_stash_access(self, write: bool = True) -> None:
        """Annotate one reorder-stash access (callers hold ``_tx_mu``,
        so the lockset half of TS401 certifies them against the
        progress engine's timer scan)."""
        tsan = self.hooks.tsan
        if tsan is not None:
            tsan.note_access(("ft-stash", self.proc.world_rank),
                             write=write,
                             what=f"rank {self.proc.world_rank} "
                                  "reorder stash")

    def _flush(self, dest: int) -> None:
        """Release the reorder stash for *dest*, if any."""
        with self._tx_mu:
            self._note_stash_access()
            held = self._held.pop(dest, None)
        if held is not None:
            self._push(dest, held[0], held[1])

    # -- sender side -------------------------------------------------------

    def deliver(self, dest_world_rank: int, msg: "Message") -> None:
        """Carry *msg* to *dest_world_rank* over the lossy wire.

        Charges the per-message protocol overhead (sequence number,
        checksum, piggybacked ack), runs the retransmission loop, and
        applies the surviving fate: delays advance the message's
        virtual arrival, duplicates are pushed twice (the receiver's
        window drops the copy), a reordered packet is stashed and
        released *after* the next packet to the same peer.
        """
        r = COSTS.reliability
        proc = self.proc
        proc.charge(Category.RELIABILITY, r.seqno)
        proc.charge(Category.RELIABILITY, r.checksum)
        proc.charge(Category.RELIABILITY, r.ack_piggyback)
        seq = self._next_seq.get(dest_world_rank, 0)
        self._next_seq[dest_world_rank] = seq + 1
        self.n_sends += 1
        delay, fate = self._survive_wire(dest_world_rank, seq,
                                         "MPI_Isend")
        if fate.delay:
            delay += self.plan.delay_s
        if delay:
            msg.arrive_s += delay
        if fate.reorder:
            # Stash with a virtual-clock retransmit deadline: if no
            # later traffic flushes it, the timer (progress engine's
            # scan, or the legacy quiescence flush) will.
            stashed = False
            with self._tx_mu:
                self._note_stash_access()
                if dest_world_rank not in self._held:
                    self._held[dest_world_rank] = (
                        seq, msg,
                        proc.vclock.now + self.plan.backoff_s(1))
                    stashed = True
            if stashed:
                # Arm the engine's deadline tick (outside _tx_mu: the
                # engine takes its own cv before the stash lock).
                progress = self.hooks.progress
                if progress is not None:
                    progress.kick()
                return
        self._push(dest_world_rank, seq, msg)
        if fate.duplicate:
            self._push(dest_world_rank, seq, msg)
        self._flush(dest_world_rank)

    def rma_transmit(self, target_world: int, op: str) -> None:
        """Reliability wrapper for one-sided operations.

        RMA payloads move through the AM/issue machinery, so only the
        protocol header work and the retransmission loop apply — there
        is no matching queue to protect, hence no dedup-window charge
        (sequence numbering alone suffices on the RMA stream).
        """
        r = COSTS.reliability
        proc = self.proc
        proc.charge(Category.RELIABILITY, r.seqno)
        proc.charge(Category.RELIABILITY, r.checksum)
        proc.charge(Category.RELIABILITY, r.ack_piggyback)
        seq = self._rma_seq.get(target_world, 0)
        self._rma_seq[target_world] = seq + 1
        self.n_sends += 1
        self._survive_wire(target_world, -1 - seq, op)

    # -- receiver side (executed on the *sender's* thread) -----------------

    def accept_packet(self, origin: "Proc", src_world: int, seq: int,
                      msg: "Message") -> None:
        """Run this rank's receive window for one arriving packet.

        Charged to *origin* (the sending rank), matching the AM-handler
        convention: the sender's thread executes this code.  Duplicates
        are dropped, out-of-order packets buffered; in-order packets —
        and any buffered successors they release — are deposited into
        the matching engine in sequence order, restoring MPI's
        non-overtaking guarantee per (source, tag) stream.
        """
        r = COSTS.reliability
        origin.charge(Category.RELIABILITY, r.dedup_window)
        released = []
        with self._mu:
            tsan = self.hooks.tsan
            if tsan is not None:
                tsan.note_access(("ft-win", self.proc.world_rank),
                                 what=f"rank {self.proc.world_rank} "
                                      "receive window")
            expected = self._expected.get(src_world, 0)
            buf = self._ooo.setdefault(src_world, {})
            if seq < expected or seq in buf:
                self.n_dup_dropped += 1
                return
            buf[seq] = msg
            if seq != expected:
                origin.charge(Category.RELIABILITY, r.reorder_window)
                self.n_ooo_buffered += 1
            while expected in buf:
                released.append(buf.pop(expected))
                expected += 1
            self._expected[src_world] = expected
        for ready in released:
            self.proc.engine.deposit(ready)

    # -- pending receives and peer death -----------------------------------

    def note_posted(self, request: "Request", src_world: Optional[int],
                    comm: object) -> None:
        """A receive was posted (the seam's ``recv_posted`` event).

        The rank is about to block: first release any outgoing packet
        still parked in the wire's reorder stash, so a peer is never
        starved by a receiver that stopped sending.  Then track the
        receive so a peer death or a revocation can complete it
        exceptionally.  Wildcard receives (*src_world* None) are
        immune to any single peer's death — no specific failure dooms
        them — but a revoked context dooms every receive on it, so
        they are tracked all the same."""
        self.drain()
        with self._mu:
            if len(self._pending_recvs) > _PRUNE_THRESHOLD:
                self._pending_recvs = [
                    entry for entry in self._pending_recvs
                    if not entry[0].is_complete()]
            self._pending_recvs.append((request, src_world, comm))
        if src_world is not None and self.world_ft.is_dead(src_world):
            self.fail_pending(src_world)
        if self.world_ft.is_revoked(comm.ctx):
            # Closes the race with a revoke that lands between this
            # rank's entry-time check and the post.
            self.fail_pending_revoked(comm.ctx)

    def fail_pending(self, dead_rank: int) -> None:
        """Complete every pending receive posted against *dead_rank*
        with ``MPI_ERR_PROC_FAILED``, running the owning communicator's
        error handler for each."""
        with self._mu:
            victims = [entry for entry in self._pending_recvs
                       if entry[1] == dead_rank
                       and not entry[0].is_complete()]
        for request, _, comm in victims:
            exc = MPIErrProcFailed(
                f"peer rank {dead_rank} failed while this receive "
                "was pending", rank=dead_rank, op="MPI_Irecv",
                request=request)
            dispatch_comm_error(comm, exc)
            # fail() is a no-op if the data won the race meanwhile, and
            # discards any matching thread's late complete() if not.
            request.fail(self.proc.vclock.now, exc)
            # Drop the posted-queue descriptor too: the handle is done
            # (failed), so the embedded cancel() no-ops, but a server
            # that outlives a dead client must not count this receive
            # as leaked at finalize.
            self.proc.engine.cancel_posted(request)

    def fail_pending_revoked(self, ctx: int) -> None:
        """Complete every pending receive posted on revoked context
        *ctx* with ``MPI_ERR_REVOKED``, running the owning
        communicator's error handler for each."""
        with self._mu:
            victims = [entry for entry in self._pending_recvs
                       if entry[2].ctx == ctx
                       and not entry[0].is_complete()]
        for request, _, comm in victims:
            exc = MPIErrRevoked(
                f"communicator ctx={ctx} was revoked while this "
                "receive was pending", rank=self.proc.world_rank)
            dispatch_comm_error(comm, exc)
            request.fail(self.proc.vclock.now, exc)
            # As in fail_pending: retire the posted descriptor so a
            # revoked context leaves nothing behind in the queues.
            self.proc.engine.cancel_posted(request)

    # -- per-call hooks ----------------------------------------------------

    def check_self(self, _name: Optional[str] = None) -> None:
        """Per-MPI-call hook (the seam's call-entry event, whose call
        name it ignores): die if the plan says this rank's time has
        come (raises :class:`RankKilled`, which only the world's entry
        wrapper handles).  The reorder stash is deliberately *not*
        flushed here — it must survive until the next send to the same
        peer so an overtaking arrival is actually observed out of
        order; liveness is covered by the receive-path and exit-time
        :meth:`drain` calls instead."""
        if self._killed:
            raise RankKilled(
                f"rank {self.proc.world_rank} is dead (fault plan)")
        if self.plan.kill_due(self.proc.world_rank, self.n_sends,
                              self.proc.vclock.now):
            self._killed = True
            self.world_ft.mark_dead(self.proc.world_rank)
            raise RankKilled(
                f"rank {self.proc.world_rank} killed by fault plan "
                f"after {self.n_sends} sends")
        # Surviving an MPI call is a heartbeat; also offer the roster
        # scan, so detection needs no progress build.  (The detector
        # is optional on fault builds.)
        detector = self.hooks.detector
        if detector is not None:
            detector.beat(self.proc.world_rank)
            detector.maybe_tick()

    def kill_pending(self) -> bool:
        """Has this rank's plan kill become due?  Latches ``_killed``
        when it has — polled by the recovery rendezvous's wait loop so
        a rank can die *during* an agreement round; the caller is
        responsible for ``mark_dead`` (outside the world condition
        variable) and for raising :class:`RankKilled`."""
        if self._killed:
            return True
        if self.plan.kill_due(self.proc.world_rank, self.n_sends,
                              self.proc.vclock.now):
            self._killed = True
            return True
        return False

    def check_comm(self, comm: object) -> None:
        """Raise ``MPI_ERR_REVOKED`` (via the communicator's error
        handler) when *comm* has been revoked."""
        if self.world_ft.is_revoked(comm.ctx):
            exc = MPIErrRevoked(
                f"communicator ctx={comm.ctx} has been revoked",
                rank=self.proc.world_rank)
            dispatch_comm_error(comm, exc)
            raise exc

    def comm_check(self, comm: object) -> None:
        """The seam's communicator check before an operation on
        *comm*: this rank's own check (collective internals bypass the
        call entry), then *comm*'s revocation."""
        self.check_self()
        self.check_comm(comm)

    def drain(self, now: Optional[float] = None) -> int:
        """Fire retransmit timers; returns how many packets released.

        Without *now* — the rank-exit / quiescence flush — every
        stashed packet is released unconditionally and nothing extra
        is charged (the original attempts already paid their wire
        costs).  With *now* (the progress engine's virtual-clock timer
        scan) only packets whose retransmit deadline has expired are
        released, and each release is a real timeout-driven
        retransmission: one ``retransmit`` RELIABILITY charge and a
        ``n_retransmits`` bump.  Timers therefore fire off the virtual
        clock, not off how often the application happens to call into
        MPI.
        """
        r = COSTS.reliability
        with self._tx_mu:
            self._note_stash_access(write=False)
            ready = [dest for dest, held in self._held.items()
                     if now is None or held[2] <= now]
        released = 0
        for dest in ready:
            with self._tx_mu:
                self._note_stash_access()
                held = self._held.pop(dest, None)
            if held is None:
                continue
            if now is not None:
                self.n_retransmits += 1
                self.proc.charge(Category.RELIABILITY, r.retransmit)
            self._push(dest, held[0], held[1])
            released += 1
        return released

    def stashed_count(self) -> int:
        """Packets currently in the reorder stash (the progress
        engine's timer scan polls this to decide whether to tick)."""
        with self._tx_mu:
            self._note_stash_access(write=False)
            return len(self._held)

    def stats(self) -> dict:
        """Protocol counters for the benchmark and the tests."""
        return {
            "n_sends": self.n_sends,
            "n_retransmits": self.n_retransmits,
            "n_dup_dropped": self.n_dup_dropped,
            "n_ooo_buffered": self.n_ooo_buffered,
            "n_delayed": self.n_delayed,
        }
