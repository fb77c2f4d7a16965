"""Event-driven completion: the complete/cancel race, prompt wakeups,
abort interruption, and the request free-pool.

These are the regression tests for the polling-era bugs: ``complete``
on a concurrently-cancelled request used to raise MPIErrRequest (the
seed treated cancelled as completed-twice), ``waitany`` used to notice
a completion of the *last* listed request only at the next 50 ms poll
slice, and a blocked probe or window lock saw a world abort only after
its current slice expired.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.errors import MPIErrRequest
from repro.mpi.rma import LOCK_EXCLUSIVE, RWLock
from repro.runtime.completion import CompletionQueue, NotifyingEvent
from repro.runtime.matching import BucketMatchingEngine, LinearMatchingEngine
from repro.runtime.request import (Request, RequestKind, RequestPool,
                                   waitany, waitsome)
from repro.runtime.world import World, WorldAborted
from tests.conftest import run_world

#: Wakeups must beat the seed's 50 ms poll slice by a clear margin.
_PROMPT_S = 0.045


def _later(delay_s, fn):
    """Run *fn* on a daemon thread after *delay_s* seconds."""
    t = threading.Timer(delay_s, fn)
    t.daemon = True
    t.start()
    return t


class TestCompleteCancelRace:
    def test_complete_after_cancel_is_noop(self):
        """The race, serialized: a sender completing a receive the
        receiver already cancelled must be discarded, not an error
        (the seed raised 'request completed twice' here)."""
        req = Request(RequestKind.RECV)
        req.cancel()
        req.complete(1.0, source=0, tag=0, count_bytes=8)   # discarded
        assert req.cancelled
        assert req.is_complete()
        assert req.count_bytes == 0

    def test_cancel_after_complete_is_noop(self):
        req = Request(RequestKind.RECV)
        req.complete(1.0)
        req.cancel()
        assert not req.cancelled
        assert req.complete_s == 1.0

    def test_double_complete_still_raises(self):
        req = Request(RequestKind.SEND)
        req.complete(1.0)
        with pytest.raises(MPIErrRequest):
            req.complete(2.0)

    def test_threaded_complete_vs_cancel_stress(self):
        """Two threads race complete against cancel on a barrier: no
        iteration may raise, and the loser's transition must always be
        the discarded one."""
        errors = []
        for _ in range(300):
            req = Request(RequestKind.RECV)
            barrier = threading.Barrier(2)

            def runner(fn):
                barrier.wait()
                try:
                    fn()
                except BaseException as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)

            threads = [
                threading.Thread(target=runner,
                                 args=(lambda: req.complete(1.0),)),
                threading.Thread(target=runner, args=(req.cancel,)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            assert req.is_complete()
            # Exactly one transition won.
            assert req.cancelled == (req.complete_s == 0.0)

    def test_irecv_cancel_races_matching_send(self):
        """Full-runtime race: rank 1 posts receives and cancels them
        while rank 0's matching sends arrive.  Every message must be
        either received or left unexpected — never lost, never doubly
        delivered, and never an engine error."""
        n = 60

        def main(comm):
            if comm.rank == 0:
                for i in range(n):
                    comm.isend(("payload", i), dest=1, tag=i)
                return None
            got, cancelled = 0, 0
            for i in range(n):
                req = comm.irecv(source=0, tag=i)
                if i % 3 == 0:
                    if comm.proc.engine.cancel_posted(req):
                        cancelled += 1
                        continue
                req.wait()
                got += 1
            return got, cancelled

        got, cancelled = run_world(2, main)[1]
        assert got + cancelled == n
        # Cancelled receives leave their message in the unexpected
        # queue; everything else was delivered.


class TestPromptWakeups:
    def test_waitany_wakes_on_last_listed_request(self):
        """Head-of-line regression: when only the *last* request in the
        list completes, waitany must return promptly — the seed blocked
        on the first request and noticed after a full 50 ms slice."""
        requests = [Request(RequestKind.RECV) for _ in range(8)]
        _later(0.01, lambda: requests[-1].complete(1.0))
        start = time.monotonic()
        idx = waitany(requests)
        elapsed = time.monotonic() - start
        assert idx == len(requests) - 1
        assert elapsed < _PROMPT_S, \
            f"waitany took {elapsed * 1e3:.1f} ms (polling-era latency)"

    def test_waitsome_returns_exactly_the_completed_set(self):
        requests = [Request(RequestKind.RECV) for _ in range(5)]
        _later(0.01, lambda: requests[3].complete(1.0))
        _later(0.01, lambda: requests[1].complete(1.0))
        done = waitsome(requests)
        assert set(done) <= {1, 3} and done

    def test_wait_wakes_immediately_on_completion(self):
        abort = NotifyingEvent()
        req = Request(RequestKind.RECV, abort_event=abort)
        _later(0.01, lambda: req.complete(2.5))
        start = time.monotonic()
        req.wait()
        assert time.monotonic() - start < _PROMPT_S
        assert req.complete_s == 2.5

    def test_completion_queue_pushes_already_complete_watch(self):
        queue = CompletionQueue()
        done = Request(RequestKind.SEND)
        done.complete(1.0)
        queue.watch("early", done)       # already complete: pushed now
        assert queue.wait_one() == "early"
        assert queue.pop_ready() is None


class TestAbortInterruption:
    def test_wait_interrupted_by_abort_immediately(self):
        abort = NotifyingEvent()
        req = Request(RequestKind.RECV, abort_event=abort)
        _later(0.01, abort.set)
        start = time.monotonic()
        with pytest.raises(WorldAborted):
            req.wait()
        assert time.monotonic() - start < _PROMPT_S

    @pytest.mark.parametrize("engine_cls",
                             [LinearMatchingEngine, BucketMatchingEngine])
    def test_probe_interrupted_by_abort_immediately(self, engine_cls):
        """The seed's blocking probe checked the abort flag only after
        each 50 ms wait timed out; the listener hook must interrupt the
        wait the instant the abort fires."""
        engine = engine_cls(0)
        abort = NotifyingEvent()
        _later(0.01, abort.set)
        start = time.monotonic()
        with pytest.raises(WorldAborted):
            engine.probe(ctx=0, src=0, tag=0, abort_event=abort)
        assert time.monotonic() - start < _PROMPT_S

    def test_window_lock_interrupted_by_abort_immediately(self):
        lock = RWLock()
        lock.acquire(LOCK_EXCLUSIVE)
        abort = NotifyingEvent()
        result = {}

        def contender():
            start = time.monotonic()
            try:
                lock.acquire(LOCK_EXCLUSIVE, abort_event=abort)
            except WorldAborted:
                result["elapsed"] = time.monotonic() - start

        t = threading.Thread(target=contender)
        t.start()
        time.sleep(0.01)
        abort.set()
        t.join(timeout=5.0)
        assert result["elapsed"] < _PROMPT_S

    def test_notifying_event_fires_late_listener_immediately(self):
        event = NotifyingEvent()
        event.set()
        fired = []
        event.add_listener(lambda: fired.append(True))
        assert fired == [True]


class TestWaitanyDetaches:
    """``waitany``/``waitsome`` used to leave one callback (pinning a
    dead queue) on every request they did not return."""

    def test_no_waiter_left_on_the_requests_not_returned(self):
        class Announcing(Request):
            """Says when ``waitany`` has subscribed to it, so that its
            completion always finds the waiter inside the queue."""

            __slots__ = ("subscribed",)

            def subscribe(self, callback):
                super().subscribe(callback)
                self.subscribed.set()

        pending = [Request(RequestKind.RECV) for _ in range(4)]
        for round_ in range(3):
            done = Announcing(RequestKind.RECV)
            done.subscribed = threading.Event()

            def complete_once_watched(done=done):
                assert done.subscribed.wait(5.0)
                done.complete(1.0)

            completer = threading.Thread(target=complete_once_watched,
                                         daemon=True)
            completer.start()
            requests = pending + [done]
            assert waitany(requests) == len(pending)
            completer.join(5.0)
            assert [len(r._waiters) for r in requests] == [0] * 5, round_

    def test_aborted_waitany_detaches_too(self):
        abort = NotifyingEvent()
        requests = [Request(RequestKind.RECV, abort_event=abort)
                    for _ in range(3)]
        abort.set()
        with pytest.raises(WorldAborted):
            waitany(requests)
        assert [len(r._waiters) for r in requests] == [0, 0, 0]
        assert not abort.parked


class TestAbortedWaitLeavesNothing:
    """An aborted ``wait`` used to leave its wake callback on the
    request until the pooled handle's next ``_reset``."""

    @pytest.mark.parametrize("event_cls", [NotifyingEvent, threading.Event])
    def test_abort_exit(self, event_cls):
        abort = event_cls()
        req = Request(RequestKind.RECV, abort_event=abort)
        abort.set()
        with pytest.raises(WorldAborted):
            req.wait()
        assert len(req._waiters) == 0
        assert req._parked is None


class TestRequestPool:
    def test_pool_recycles_handles(self):
        pool = RequestPool()
        first = pool.acquire(RequestKind.SEND)
        first.complete(1.0)
        pool.release(first)
        second = pool.acquire(RequestKind.RECV)
        assert second is first
        assert second.kind is RequestKind.RECV
        assert not second.is_complete()
        assert pool.n_reuse == 1 and pool.n_alloc == 1

    def test_pool_rejects_subclasses_and_caps(self):
        pool = RequestPool()

        class Sub(Request):
            pass

        pool.release(Sub(RequestKind.SEND))
        assert pool.acquire(RequestKind.SEND).__class__ is Request
        for _ in range(2 * RequestPool.MAX_POOLED):
            pool.release(Request(RequestKind.SEND, complete_s=0.0))
        assert len(pool._free) == RequestPool.MAX_POOLED

    def test_blocking_traffic_reuses_pool(self):
        """A ping-pong loop's blocking wrappers must actually recycle:
        the pool sees reuse, and results stay correct."""
        def main(comm):
            peer = 1 - comm.rank
            buf = np.zeros(4)
            for i in range(30):
                if comm.rank == 0:
                    comm.Send(np.full(4, float(i)), dest=peer)
                    comm.Recv(buf, source=peer)
                else:
                    comm.Recv(buf, source=peer)
                    comm.Send(buf, dest=peer)
            pool = comm.proc.request_pool
            return float(buf[0]), pool.n_reuse, pool.n_alloc

        for rank_result in run_world(2, main):
            value, n_reuse, n_alloc = rank_result
            assert value == 29.0
            assert n_reuse > n_alloc


class TestWorldAbortLatency:
    def test_raising_rank_unblocks_blocked_recv_promptly(self):
        """End-to-end: rank 0 raises; rank 1 is parked in a blocking
        recv and must be torn down through the notification path."""
        class Boom(RuntimeError):
            pass

        def main(comm):
            if comm.rank == 0:
                time.sleep(0.01)
                raise Boom("rank 0 failed")
            comm.recv(source=0)   # never satisfied

        world = World(2, BuildConfig())
        start = time.monotonic()
        with pytest.raises(Boom):
            world.run(main, timeout=30.0)
        # Generous bound: thread join + teardown, but nowhere near the
        # seed's poll-slice stacking.
        assert time.monotonic() - start < 1.0
