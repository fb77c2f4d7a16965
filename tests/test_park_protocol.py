"""The park protocol of a blocked wait, deterministically and under
stress.

A blocked ``Request.wait`` leaves a :class:`Waker` in the request's
``_parked`` slot and sleeps on it; whoever completes, cancels or fails
the request takes the slot and fires it, and a world abort fires every
parked waker.  The deterministic half stops the waiter at each step of
that protocol and runs the racing transition there; the stress half
shortens the switch interval and races everything against everything.
No test sleeps: every wait in here is a handshake with a timeout that
is only reached on a hang.
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import pytest

import repro.runtime.completion as completion
import repro.runtime.request as request_module
from repro.core.config import BuildConfig
from repro.runtime.completion import NotifyingEvent, Waker
from repro.runtime.request import (Request, RequestKind, RequestPool,
                                   waitall, waitany)
from repro.runtime.world import World, WorldAborted

#: Reached only when something hangs.
HANG_S = 20.0

#: Where a :class:`StepWaker` can stop its thread: before the waker is
#: stored in the slot, between the store (and the abort registration
#: and look) and the sleep, or not at all — it then only reports that
#: the sleep is about to begin.
STEPS = ("before-store", "before-sleep", "asleep")


class Boom(RuntimeError):
    """The error a failed request carries."""


def _step_waker(stop_at: str):
    """A Waker class whose instances stop at *stop_at*, and the two
    events of the handshake: ``arrived`` (set by the waiter when it
    gets there) and ``go`` (set by the test to let it continue)."""
    arrived, go = threading.Event(), threading.Event()

    def reached(step: str) -> None:
        if step == stop_at:
            arrived.set()
            if step != "asleep":
                assert go.wait(HANG_S), "the test never released the waiter"

    class StepWaker(Waker):
        __slots__ = ()

        def __init__(self):
            reached("before-store")
            super().__init__()

        def park(self, timeout=None):
            reached("before-sleep")
            reached("asleep")
            return super().park(timeout)

    return StepWaker, arrived, go


def _wait_in_thread(req):
    """Start ``req.wait()`` on a thread; returns it and the list its
    outcome lands in: ``"done"`` or the exception raised."""
    outcome: list = []

    def body():
        try:
            req.wait()
            outcome.append("done")
        except BaseException as exc:  # noqa: BLE001 - the outcome
            outcome.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, outcome


def _joined(thread) -> None:
    thread.join(HANG_S)
    assert not thread.is_alive(), "the waiter hung"


def _quiescent(req, abort=None) -> None:
    """Nothing of the finished wait is left registered anywhere."""
    assert req._parked is None
    assert len(req._waiters) == 0
    if abort is not None:
        notifier = completion._notifier(abort, bridge=False)
        assert notifier is None or not notifier.parked


TRANSITIONS = {
    "complete": lambda req: req.complete(2.5, source=3, tag=4, count_bytes=8),
    "cancel": lambda req: req.cancel(),
    "fail": lambda req: req.fail(1.5, Boom("peer died")),
}


class TestWaker:
    def test_fire_before_park_is_kept(self):
        waker = Waker()
        assert waker.park(0) is False
        waker.fire()
        assert waker.park(0) is True

    def test_second_fire_is_a_noop(self):
        waker = Waker()
        waker.fire()
        waker.fire()
        assert waker.park(0) is True
        assert waker.park(0) is False

    def test_fire_from_two_threads_wakes_once(self):
        for _ in range(200):
            waker = Waker()
            barrier = threading.Barrier(2)

            def fire():
                barrier.wait(HANG_S)
                waker.fire()

            threads = [threading.Thread(target=fire) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                _joined(t)
            assert waker.park(0) is True
            assert waker.park(0) is False

    def test_fire_is_a_completion_callback(self):
        req, waker = Request(RequestKind.RECV), Waker()
        req.subscribe(waker.fire)
        req.complete(1.0)
        assert waker.park(0) is True

    def test_park_blocks_until_fired_from_another_thread(self):
        waker, woke = Waker(), []
        thread = threading.Thread(
            target=lambda: woke.append(waker.park()), daemon=True)
        thread.start()
        waker.fire()
        _joined(thread)
        assert woke == [True]


class TestForcedInterleavings:
    """Each transition at each step of the waiter, no sleeps."""

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("transition", sorted(TRANSITIONS))
    def test_transition_at_every_step(self, monkeypatch, step, transition):
        cls, arrived, go = _step_waker(step)
        monkeypatch.setattr(request_module, "Waker", cls)
        abort = NotifyingEvent()
        req = Request(RequestKind.RECV, abort_event=abort)
        thread, outcome = _wait_in_thread(req)
        assert arrived.wait(HANG_S)
        TRANSITIONS[transition](req)
        go.set()
        _joined(thread)
        if transition == "fail":
            assert isinstance(outcome[0], Boom)
            assert req.complete_s == 1.5
        else:
            assert outcome == ["done"]
        assert req.cancelled == (transition != "complete")
        if transition == "complete":
            assert (req.complete_s, req.source, req.tag,
                    req.count_bytes) == (2.5, 3, 4, 8)
        assert req.is_complete()
        _quiescent(req, abort)

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("event_cls", [NotifyingEvent, threading.Event])
    def test_abort_at_every_step(self, monkeypatch, step, event_cls):
        cls, arrived, go = _step_waker(step)
        monkeypatch.setattr(request_module, "Waker", cls)
        abort = event_cls()
        req = Request(RequestKind.RECV, abort_event=abort)
        thread, outcome = _wait_in_thread(req)
        assert arrived.wait(HANG_S)
        abort.set()
        go.set()
        _joined(thread)
        assert isinstance(outcome[0], WorldAborted)
        assert not req.is_complete()
        _quiescent(req, abort)
        # The handle is still usable: a late completion lands normally.
        req.complete(1.0)
        assert req.wait() is req

    def test_completion_beats_a_simultaneous_abort(self, monkeypatch):
        """Both fire the same waker; a request that is complete when
        the waiter looks is returned, not reported as aborted."""
        cls, arrived, go = _step_waker("before-sleep")
        monkeypatch.setattr(request_module, "Waker", cls)
        abort = NotifyingEvent()
        req = Request(RequestKind.RECV, abort_event=abort)
        thread, outcome = _wait_in_thread(req)
        assert arrived.wait(HANG_S)
        abort.set()
        req.complete(1.0)
        go.set()
        _joined(thread)
        assert outcome == ["done"]
        _quiescent(req, abort)

    def test_sleep_error_withdraws_the_waker(self, monkeypatch):
        """An error out of the sleep leaves nothing registered and
        balances the seam's wait events."""
        calls = []

        class Hooks:
            """A seam that records its wait events."""
            races = tsan = None

            def wait_enter(self, what, request=None, probe=None):
                calls.append("enter")

            def wait_exit(self):
                calls.append("exit")

            def finish(self, request):
                pass

        class FailingWaker(Waker):
            __slots__ = ()

            def park(self, timeout=None):
                raise Boom("the sleep failed")

        monkeypatch.setattr(request_module, "Waker", FailingWaker)
        proc = SimpleNamespace(hooks=Hooks())
        proc.request_pool = RequestPool(proc)   # the rank's seam's pool
        abort = NotifyingEvent()
        req = Request(RequestKind.RECV, proc, abort)
        with pytest.raises(Boom):
            req.wait()
        assert calls == ["enter", "exit"]
        assert proc.request_pool.n_parked == 1
        assert proc.request_pool.n_woken == 0
        _quiescent(req, abort)

    def test_second_waiter_on_one_handle(self, monkeypatch):
        """The slot holds one waker; a second thread waiting on the
        same handle subscribes its own and both wake."""
        cls, arrived, go = _step_waker("asleep")
        monkeypatch.setattr(request_module, "Waker", cls)
        req = Request(RequestKind.RECV, abort_event=NotifyingEvent())
        first, first_outcome = _wait_in_thread(req)
        assert arrived.wait(HANG_S)
        first_waker = req._parked
        arrived.clear()
        second, second_outcome = _wait_in_thread(req)
        assert arrived.wait(HANG_S)
        assert req._parked is first_waker
        assert len(req._waiters) == 1
        req.complete(1.0)
        _joined(first)
        _joined(second)
        assert first_outcome == second_outcome == ["done"]
        _quiescent(req)

    def test_aborted_second_waiter_withdraws_its_subscription(
            self, monkeypatch):
        cls, arrived, go = _step_waker("asleep")
        monkeypatch.setattr(request_module, "Waker", cls)
        abort = NotifyingEvent()
        req = Request(RequestKind.RECV, abort_event=abort)
        threads = []
        for _ in range(2):
            threads.append(_wait_in_thread(req))
            assert arrived.wait(HANG_S)
            arrived.clear()
        abort.set()
        for thread, outcome in threads:
            _joined(thread)
            assert isinstance(outcome[0], WorldAborted)
        _quiescent(req, abort)


@pytest.fixture
def tiny_switch_interval():
    """Threads preempted every microsecond: every window of the
    protocol is hit many times in a few thousand rounds."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _run_all(*bodies):
    """Run each body on its own thread, all released together; returns
    what each returned or raised.  A hang fails the test."""
    barrier = threading.Barrier(len(bodies))
    results = [None] * len(bodies)

    def runner(i, body):
        barrier.wait(HANG_S)
        try:
            results[i] = body()
        except BaseException as exc:  # noqa: BLE001 - the result
            results[i] = exc

    threads = [threading.Thread(target=runner, args=(i, b), daemon=True)
               for i, b in enumerate(bodies)]
    for t in threads:
        t.start()
    for t in threads:
        _joined(t)
    return results


@pytest.mark.usefixtures("tiny_switch_interval")
class TestStress:
    ROUNDS = 2000

    def test_two_waiters_race_every_transition_on_recycled_handles(self):
        """Two threads wait on one pooled handle while a third runs a
        transition (or aborts): no hang, the right outcome on both,
        callbacks exactly once and in FIFO order, nothing left
        registered — then the handle is recycled for the next round,
        so a stale wake from its previous life would show."""
        abort = NotifyingEvent()
        pool = RequestPool(abort_event=abort)
        kinds = sorted(TRANSITIONS) + ["abort"]
        for round_ in range(self.ROUNDS):
            kind = kinds[round_ % len(kinds)]
            req = pool.acquire(RequestKind.RECV)
            order: list = []
            for i in range(3):
                req.subscribe(lambda _r, i=i: order.append(i))
            if kind == "abort":
                transition = abort.set
            else:
                transition = lambda: TRANSITIONS[kind](req)  # noqa: E731
            late = []

            def subscribe_late():
                req.subscribe(lambda _r: late.append(1))

            got = _run_all(req.wait, req.wait, transition, subscribe_late)
            if kind == "abort":
                # A waiter may also have got there before the abort
                # and parked; either way it is told.
                assert all(isinstance(g, WorldAborted) for g in got[:2]), got
                assert order == []
                abort.clear()
                req.complete(1.0)
            elif kind == "fail":
                assert all(isinstance(g, Boom) for g in got[:2]), got
            else:
                assert got[:2] == [req, req], got
            assert got[2:] == [None, None], got
            assert order == [0, 1, 2], (round_, kind, order)
            assert late == [1]
            _quiescent(req, abort)
            pool.release(req)
        assert pool.n_reuse == self.ROUNDS - 1

    def test_waitall_and_waitany_against_racing_completers(self):
        abort = NotifyingEvent()
        pool = RequestPool(abort_event=abort)
        for round_ in range(self.ROUNDS // 2):
            reqs = [pool.acquire(RequestKind.RECV) for _ in range(4)]
            first = round_ % 4

            def complete(indices):
                for i in indices:
                    reqs[i].complete(float(i))

            got = _run_all(lambda: waitany(reqs),
                           lambda: complete([first]))
            assert got == [first, None], (round_, got)
            assert all(len(r._waiters) == 0 for r in reqs)
            rest = [i for i in range(4) if i != first]
            got = _run_all(lambda: waitall(reqs),
                           lambda: complete(rest[:2]),
                           lambda: complete(rest[2:]))
            assert got == [None, None, None], (round_, got)
            for i, req in enumerate(reqs):
                assert req.complete_s == float(i)
                _quiescent(req, abort)
                pool.release(req)

    def test_waitany_aborted_mid_wait(self):
        for _ in range(self.ROUNDS // 4):
            abort = NotifyingEvent()
            reqs = [Request(RequestKind.RECV, abort_event=abort)
                    for _ in range(3)]
            got = _run_all(lambda: waitany(reqs), abort.set)
            assert isinstance(got[0], WorldAborted), got
            assert all(len(r._waiters) == 0 for r in reqs)
            assert not abort.parked

    @pytest.mark.parametrize("progress", [None, "thread"])
    def test_nbc_waits_in_a_world(self, progress):
        """``NBCRequest.wait``: inline it drives the schedule through
        blocking inner waits, with a progress engine it parks once on
        the final completion the engine thread performs."""
        rounds = 150

        def main(comm):
            total = 0
            for i in range(rounds):
                req = comm.iallreduce(comm.rank + i)
                req.wait()
                total += req.result
                comm.ibarrier().wait()
            return total

        world = World(3, BuildConfig(progress=progress))
        expected = sum(3 * i + 3 for i in range(rounds))
        assert world.run(main, timeout=120.0) == [expected] * 3
        assert sum(p.request_pool.n_parked for p in world.procs) > 0
