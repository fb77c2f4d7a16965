"""Background progress engine: continuations, wait-path fixes, overlap.

Covers the PR's tentpole and its satellite bug fixes:

* foreign plain-Event abort flags wake blocked waiters immediately
  (the old slice-polling fallback could oversleep an abort);
* ``Request.subscribe`` exactly-once semantics under a concurrent
  ``complete``/``cancel``/``fail`` (the subscribe/flush handoff);
* ``ft`` retransmit timers fire off the virtual clock, not off how
  often the application calls into MPI;
* wait families under fault injection with the engine on and off, and
  the overlap property itself: with ``progress`` enabled a rendezvous
  exchange and an NBC allreduce complete with zero user polls and the
  blocking-wait share collapses.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.ft import FaultPlan
from repro.mpi import reduceops
from repro.runtime.completion import CompletionQueue, add_abort_listener
from repro.runtime.request import Request, RequestKind, waitall, waitany
from repro.runtime.world import World, WorldAborted

#: Lossy enough to exercise drop/dup/reorder on a 40-message stream.
LOSSY = dict(drop_rate=0.1, duplicate_rate=0.1, reorder_rate=0.15)

N_MSGS = 40


class TestForeignEventAbort:
    """Satellite 1: plain-Event abort flags wake waiters at once."""

    def test_add_abort_listener_accepts_plain_event(self):
        event = threading.Event()
        fired = threading.Event()
        assert add_abort_listener(event, fired.set) is True
        event.set()
        assert fired.wait(2.0)

    def test_listener_on_already_set_plain_event_fires_immediately(self):
        event = threading.Event()
        event.set()
        fired = []
        assert add_abort_listener(event, lambda: fired.append(1)) is True
        assert fired == [1]

    def test_cleared_and_reused_plain_event_gets_a_fresh_bridge(self):
        event = threading.Event()
        first, second = threading.Event(), threading.Event()
        add_abort_listener(event, first.set)
        event.set()
        assert first.wait(2.0)
        event.clear()
        add_abort_listener(event, second.set)
        assert not second.is_set()
        event.set()
        assert second.wait(2.0)

    def test_request_wait_wakes_on_plain_event_abort(self):
        abort = threading.Event()
        req = Request(RequestKind.RECV, abort_event=abort)
        outcome: list = []

        def block():
            t0 = time.monotonic()
            try:
                req.wait()
            except WorldAborted:
                outcome.append(time.monotonic() - t0)

        thread = threading.Thread(target=block)
        thread.start()
        time.sleep(0.05)
        abort.set()
        thread.join(5.0)
        assert outcome, "wait neither aborted nor returned"
        assert outcome[0] < 2.0

    def test_completion_queue_wait_one_wakes_on_plain_event_abort(self):
        abort = threading.Event()
        queue = CompletionQueue(abort_event=abort)
        queue.watch(0, Request(RequestKind.RECV))
        outcome: list = []

        def block():
            try:
                queue.wait_one()
            except WorldAborted:
                outcome.append("aborted")

        thread = threading.Thread(target=block)
        thread.start()
        time.sleep(0.05)
        abort.set()
        thread.join(5.0)
        assert outcome == ["aborted"]


class TestSubscribeFlushHandoff:
    """Satellite 2: exactly-once callbacks under transition races."""

    def _blocked_flush(self, transition):
        """A request mid-flush: *transition* runs on a thread, its
        first callback parked on a gate.  Returns (req, gate, thread)."""
        req = Request(RequestKind.SEND)
        gate = threading.Event()
        entered = threading.Event()

        def first(_req):
            entered.set()
            gate.wait(5.0)

        req.subscribe(first)
        thread = threading.Thread(target=transition, args=(req,))
        thread.start()
        assert entered.wait(5.0)
        return req, gate, thread

    def test_subscribe_during_flush_fires_exactly_once_on_flusher(self):
        req, gate, thread = self._blocked_flush(
            lambda r: r.complete(1.0))
        fired: list = []
        req.subscribe(lambda _req: fired.append(threading.current_thread()))
        # The subscriber must not run it inline: the flush owns it.
        assert fired == []
        gate.set()
        thread.join(5.0)
        assert len(fired) == 1
        assert fired[0] is thread

    def test_subscribe_during_cancel_flush_fires_exactly_once(self):
        req, gate, thread = self._blocked_flush(lambda r: r.cancel())
        fired: list = []
        req.subscribe(lambda _req: fired.append(1))
        assert fired == []
        gate.set()
        thread.join(5.0)
        assert fired == [1]

    def test_subscribe_during_fail_flush_fires_exactly_once(self):
        req, gate, thread = self._blocked_flush(
            lambda r: r.fail(1.0, RuntimeError("boom")))
        fired: list = []
        req.subscribe(lambda _req: fired.append(1))
        assert fired == []
        gate.set()
        thread.join(5.0)
        assert fired == [1]

    def test_reset_mid_flush_kills_stale_waiters(self):
        req, gate, thread = self._blocked_flush(
            lambda r: r.complete(1.0))
        stale: list = []
        req.subscribe(lambda _req: stale.append(1))
        req._reset(RequestKind.SEND)   # pool recycle during the flush
        gate.set()
        thread.join(5.0)
        # The recycled handle's new life owns _waiters; the old flush
        # observed the epoch bump and stopped.
        assert stale == []

    def test_late_subscribe_after_flush_runs_inline(self):
        req = Request(RequestKind.SEND)
        req.complete(1.0)
        fired: list = []
        req.subscribe(lambda _req: fired.append(threading.current_thread()))
        assert fired == [threading.current_thread()]

    def test_subscribe_vs_complete_race_is_exactly_once(self):
        for _ in range(200):
            req = Request(RequestKind.SEND)
            count = [0]
            start = threading.Barrier(2)

            def complete():
                start.wait()
                req.complete(1.0)

            def subscribe():
                start.wait()
                req.subscribe(lambda _req: count.__setitem__(
                    0, count[0] + 1))

            threads = [threading.Thread(target=complete),
                       threading.Thread(target=subscribe)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(5.0)
            assert count[0] == 1

    def test_callbacks_fire_in_registration_order(self):
        req = Request(RequestKind.SEND)
        order: list = []
        for i in range(5):
            req.subscribe(lambda _req, i=i: order.append(i))
        req.complete(1.0)
        assert order == [0, 1, 2, 3, 4]


class TestVirtualClockRetransmit:
    """Satellite 3: retransmit timers run off the virtual clock."""

    #: Every packet draws the reorder fate, so a single send stashes.
    REORDER_ONLY = dict(reorder_rate=1.0)

    def test_drain_with_now_respects_the_deadline(self):
        config = BuildConfig(fault_plan=FaultPlan(seed=5,
                                                  **self.REORDER_ONLY))

        def fn(comm):
            if comm.rank == 0:
                comm.send("held", dest=1)
                faults = comm.proc.hooks.faults
                assert faults.stashed_count() == 1
                before = faults.n_retransmits
                # Deadline is in the virtual future: nothing fires.
                assert faults.drain(now=comm.proc.vclock.now) == 0
                assert faults.stashed_count() == 1
                # Advance the virtual clock past the deadline.
                comm.proc.charge_compute(1.0)
                assert faults.drain(now=comm.proc.vclock.now) == 1
                assert faults.stashed_count() == 0
                return faults.n_retransmits - before
            return comm.recv(source=0)

        results = World(2, config).run(fn)
        assert results[0] == 1          # the release was a retransmission
        assert results[1] == "held"     # and it arrived intact

    def test_legacy_drain_flushes_unconditionally_without_charges(self):
        config = BuildConfig(fault_plan=FaultPlan(seed=5,
                                                  **self.REORDER_ONLY))

        def fn(comm):
            if comm.rank == 0:
                comm.send("held", dest=1)
                faults = comm.proc.hooks.faults
                before = faults.n_retransmits
                assert faults.drain() == 1   # quiescence flush: no timer
                return faults.n_retransmits - before
            return comm.recv(source=0)

        results = World(2, config).run(fn)
        assert results[0] == 0
        assert results[1] == "held"

    def test_engine_fires_timer_without_any_mpi_call(self):
        """A rank that stops calling into MPI still retransmits: the
        engine's virtual-clock scan releases the stash while the rank
        sleeps in pure compute."""
        config = BuildConfig(fault_plan=FaultPlan(seed=5,
                                                  **self.REORDER_ONLY),
                             progress="thread")

        def fn(comm):
            if comm.rank == 0:
                comm.send("held", dest=1)
                # Pure compute: the virtual clock passes the retransmit
                # deadline, the wall clock gives the engine time to scan.
                comm.proc.charge_compute(1.0)
                time.sleep(0.3)
                stats = comm.proc.hooks.progress.stats()
                return (comm.proc.hooks.faults.stashed_count(),
                        stats["n_timer_fires"])
            return comm.recv(source=0)

        results = World(2, config).run(fn)
        stashed, timer_fires = results[0]
        assert stashed == 0, "engine never released the stash"
        assert timer_fires >= 1
        assert results[1] == "held"


class TestProgressEngineConfig:
    """Mode validation and the is-None default."""

    def test_default_build_has_no_engine(self):
        world = World(1, BuildConfig())
        assert world.progress is None
        assert world.proc(0).hooks is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="BuildConfig.progress"):
            World(1, BuildConfig(progress="bogus"))

    def test_requires_thread_safety(self):
        with pytest.raises(ValueError, match="thread_safety"):
            World(1, BuildConfig(progress="thread", thread_safety=False))

    def test_continuation_error_aborts_the_world(self):
        world = World(1, BuildConfig(progress="thread"))
        engine = world.proc(0).hooks.progress
        engine.post_continuation(lambda _req: 1 / 0, None)
        deadline = time.monotonic() + 5.0
        while not engine.errors and time.monotonic() < deadline:
            time.sleep(0.01)
        assert engine.errors
        assert world.abort_event.is_set()


class TestContinuations:
    """on_complete / attach_continuation chaining semantics."""

    def test_on_complete_without_engine_runs_on_completing_thread(self):
        req = Request(RequestKind.SEND)
        seen: list = []
        req.on_complete(lambda r: seen.append(threading.current_thread()))
        thread = threading.Thread(target=lambda: req.complete(1.0))
        thread.start()
        thread.join(5.0)
        assert seen == [thread]

    def test_attach_continuation_is_the_mpix_spelling(self):
        assert Request.attach_continuation is Request.on_complete

    def test_on_complete_with_engine_runs_on_progress_thread(self):
        config = BuildConfig(progress="thread")

        def fn(comm):
            peer = 1 - comm.rank
            req = comm.Irecv(np.empty(4), source=peer, tag=3)
            names: list = []
            done = threading.Event()

            def continuation(_req):
                names.append(threading.current_thread().name)
                done.set()

            req.on_complete(continuation)
            comm.Isend(np.zeros(4), dest=peer, tag=3).wait()
            assert done.wait(5.0)
            req.wait()
            return names[0]

        results = World(2, config).run(fn)
        for name in results:
            assert name.startswith("mpi-progress-")

    def test_continuation_sees_the_life_it_was_attached_to(self):
        """A handle released while its continuation still waits in the
        engine's queue is not recycled: the continuation reads this
        life's status, not the next one's.  (With the CS lock held the
        engine cannot dispatch; the pool then handed the same handle
        to the next receive, and the continuation saw its tag.)"""
        from repro.mpi.comm import Communicator
        proc = World(1, BuildConfig(progress="thread")).proc(0)
        comm = Communicator.world_view(proc)
        pool = proc.request_pool
        buf, seen, ran = np.zeros(1, np.uint8), [], threading.Event()
        acquires = 0
        with proc.cs_lock:
            first = comm.Irecv(buf, 0, 5)
            first.on_complete(lambda req: (seen.append(req.tag), ran.set()))
            comm.Send(np.ones(1, np.uint8), 0, 5)
            first.wait()
            pool.release(first)
            second = comm.Irecv(buf, 0, 6)
            comm.Send(np.ones(1, np.uint8), 0, 6)
            second.wait()
            acquires += 4
        assert ran.wait(10.0)
        assert seen == [5]
        assert second is not first
        # The held handle was dropped, not pooled: every acquire is
        # still an allocation or a reuse.
        assert pool.n_alloc + pool.n_reuse == acquires
        # Once its continuation ran, a handle recycles as before.
        pool.release(second)
        third = comm.Irecv(buf, 0, 7)
        assert third is second
        assert pool.n_reuse >= 1

    def test_held_counts_survive_racing_threads(self):
        """Eight application threads attach continuations and release
        their handles while the engine runs them, the switch interval
        shortened: every continuation runs once on its own life, every
        hold is returned, and the pool's books balance."""
        import sys
        from repro.mpi.comm import Communicator
        proc = World(1, BuildConfig(progress="thread")).proc(0)
        comm = Communicator.world_view(proc)
        pool = proc.request_pool
        rounds, seen, bad, handles = 40, [], [], []
        all_ran = threading.Event()

        def continuation(req, tag):
            if req.tag != tag:
                bad.append(req.tag)
            seen.append(tag)
            if len(seen) == 8 * rounds:
                all_ran.set()

        def worker(tag):
            buf = np.zeros(1, np.uint8)
            for _ in range(rounds):
                req = comm.Irecv(buf, 0, tag)
                req.on_complete(lambda r, t=tag: continuation(r, t))
                comm.Send(np.ones(1, np.uint8), 0, tag)
                req.wait()
                handles.append(req)
                pool.release(req)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(tag,))
                       for tag in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all_ran.wait(30.0)
        assert len(seen) == 8 * rounds and not bad
        with proc.cs_lock:      # the engine's last pass is over
            assert all(req._held == 0 for req in handles)
        # One Irecv and one Send per round: two acquires.
        assert pool.n_alloc + pool.n_reuse == 2 * 8 * rounds


@pytest.mark.parametrize("progress", [None, "thread"])
@pytest.mark.parametrize("num_vcis", [1, 4])
@pytest.mark.parametrize("seed", [1, 7])
class TestWaitFamiliesUnderFaults:
    """Satellite 4: waitall/waitany under injection, engine on and off."""

    def _config(self, seed, num_vcis, progress):
        return BuildConfig(fault_plan=FaultPlan(seed=seed, **LOSSY),
                           num_vcis=num_vcis, progress=progress)

    def test_waitall_streams_exactly_once_in_order(self, seed, num_vcis,
                                                   progress):
        config = self._config(seed, num_vcis, progress)

        def fn(comm):
            me, peer = comm.rank, 1 - comm.rank
            reqs = [comm.isend((me, i), dest=peer) for i in range(N_MSGS)]
            got = [comm.recv(source=peer) for _ in range(N_MSGS)]
            waitall(reqs)
            return got

        results = World(2, config).run(fn)
        for me in (0, 1):
            assert results[me] == [(1 - me, i) for i in range(N_MSGS)]

    def test_waitany_consumes_every_receive(self, seed, num_vcis, progress):
        config = self._config(seed, num_vcis, progress)
        n = 12

        def fn(comm):
            me, peer = comm.rank, 1 - comm.rank
            sends = [comm.isend(("m", i), dest=peer) for i in range(n)]
            recvs = [comm.irecv(source=peer) for _ in range(n)]
            pending = list(range(n))
            got = {}
            while pending:
                i = waitany([recvs[j] for j in pending])
                idx = pending.pop(i)
                got[idx] = recvs[idx].payload
            waitall(sends)
            return len(got)

        results = World(2, config).run(fn)
        assert results == [n, n]


class TestOverlap:
    """The acceptance property: zero user polls, shrinking waits."""

    SLEEP_S = 0.25

    def _run(self, progress):
        config = BuildConfig(progress=progress)

        def fn(comm):
            if comm.rank == 0:
                # Post, then go compute: with an engine the schedule
                # advances itself; without one it stalls until wait.
                req = comm.iallreduce(1.0, op=reduceops.SUM)
                time.sleep(self.SLEEP_S)
                req.wait()
                return 0.0
            req = comm.iallreduce(2.0, op=reduceops.SUM)
            t0 = time.monotonic()
            req.wait()
            elapsed = time.monotonic() - t0
            assert req.result == 3.0
            return elapsed

        return World(2, config).run(fn)[1]

    def test_blocking_wait_time_shrinks_with_progress(self):
        blocked = self._run(None)
        overlapped = self._run("thread")
        # Without an engine rank 1 waits out rank 0's compute; with one
        # the collective completes in the background.
        assert blocked > 0.6 * self.SLEEP_S
        assert overlapped < blocked / 2.0

    def test_zero_polls_between_post_and_wait(self):
        config = BuildConfig(progress="thread")

        def fn(comm):
            peer = 1 - comm.rank
            nbc = comm.iallreduce(float(comm.rank), op=reduceops.SUM)
            big = np.zeros(1 << 17)   # rendezvous-sized (1 MiB)
            sreq = comm.Isend(big, dest=peer, tag=9)
            rreq = comm.Irecv(np.empty(1 << 17), source=peer, tag=9)
            time.sleep(0.3)
            # No MPI call happened since the posts; everything is done.
            polled_complete = (nbc.is_complete(), sreq.is_complete(),
                               rreq.is_complete())
            nbc.wait(), sreq.wait(), rreq.wait()
            stats = comm.proc.hooks.progress.stats()
            return polled_complete, stats

        results = World(2, config).run(fn)
        for polled_complete, stats in results:
            assert polled_complete == (True, True, True)
            assert stats["n_lane_drained"] >= 1   # parked rendezvous
            assert stats["n_continuations"] >= 1  # NBC chained itself

    @pytest.mark.parametrize("nbytes", [16, 1 << 20])
    def test_ibcast_zero_polls_eager_and_rendezvous(self, nbytes):
        """Above the eager threshold every forward on the tree is a
        rendezvous send that only the progress thread retires: the
        schedule is suspended on a *send*, and its completion — not a
        ``test()`` from the application — resumes it."""
        config = BuildConfig(progress="thread")

        def fn(comm):
            payload = b"0123456789abcdef" * (nbytes // 16)
            req = comm.ibcast(payload if comm.rank == 1 else None, root=1)
            time.sleep(0.3)
            done_unpolled = req.is_complete()
            same = req.wait().result == comm.bcast(
                payload if comm.rank == 1 else None, root=1) == payload
            return done_unpolled, same, comm.proc.hooks.progress.stats()

        results = World(4, config).run(fn)
        assert all(done and same for done, same, _ in results)
        if nbytes > 65536:   # the root's forwards parked as rendezvous
            assert results[1][2]["n_lane_drained"] >= 1
