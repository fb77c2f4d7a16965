"""The hook seam (``proc.hooks``, :mod:`repro.runtime.hooks`): one
object between the runtime and its optional subsystems.

Two regressions came from the copies the seam replaced: a blocking
probe and a window-lock wait each wired their own subset of hooks, so
neither announced its wait to every subscriber.  Every blocked wait is
now one seam event.  The rest pins the seam's shape: None on a plain
build, events bound to their one subscriber's own method, a timeline
that leaves the request regime alone.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.ft import FaultPlan
from repro.mpi.rma import LOCK_EXCLUSIVE, Window
from repro.runtime import World
from repro.runtime.hooks import Hooks, _skip, make_lock, race_key
from repro.runtime.request import RequestKind


def _counted_waits(monkeypatch) -> Counter:
    """Count every ``wait_enter`` by ``(rank, what)`` and every
    ``wait_exit`` by ``(rank, "exit")``."""
    seen: Counter = Counter()
    enter, leave = Hooks.wait_enter, Hooks.wait_exit

    def counted_enter(self, what, request=None, probe=None):
        seen[self.rank, what] += 1
        return enter(self, what, request, probe)

    def counted_exit(self):
        seen[self.rank, "exit"] += 1
        return leave(self)

    monkeypatch.setattr(Hooks, "wait_enter", counted_enter)
    monkeypatch.setattr(Hooks, "wait_exit", counted_exit)
    return seen


def _balanced(seen: Counter, rank: int) -> bool:
    entered = sum(n for (r, what), n in seen.items()
                  if r == rank and what != "exit")
    return entered == seen[rank, "exit"]


class TestBlockedWaitsFireTheSeam:
    """A probe and a window lock each fire ``wait_enter`` once, and
    ``wait_exit`` balances every entry, on a race-detector build (whose
    TS403 check subscribes to the event)."""

    def test_probe_fires_the_wait_events(self, monkeypatch):
        seen = _counted_waits(monkeypatch)

        def main(comm):
            if comm.rank == 0:
                status = comm.probe(1, 5)
                assert comm.recv(1, 5) == "to 0"
                return status.source
            comm.send("to 0", 0, 5)
            return None

        world = World(2, BuildConfig(tsan=True))
        assert world.run(main, timeout=60) == [1, None]
        assert seen[0, "probe"] == 1 and seen[1, "probe"] == 0
        assert _balanced(seen, 0) and _balanced(seen, 1)
        assert not world.tsan.findings

    def test_window_lock_fires_the_wait_events(self, monkeypatch):
        seen = _counted_waits(monkeypatch)

        def main(comm):
            exposed = np.zeros(8, np.uint8)
            win = Window.create(comm, exposed, disp_unit=1)
            if comm.rank == 0:
                win.lock(1, LOCK_EXCLUSIVE)
                win.put(np.full(1, 9, np.uint8), 1, 0)
                win.unlock(1)
            comm.barrier()
            win.free()
            return int(exposed[0])

        world = World(2, BuildConfig(tsan=True))
        assert world.run(main, timeout=60) == [0, 9]
        assert seen[0, "window lock"] == 1
        assert seen[1, "window lock"] == 0
        assert _balanced(seen, 0) and _balanced(seen, 1)
        assert not world.tsan.findings


class TestSeamShape:
    """What the seam is on each kind of build."""

    def test_plain_builds_have_no_seam(self):
        for proc in World(2, BuildConfig()).procs:
            assert proc.hooks is None
            assert proc.request_pool._hooks is None

    def test_vci_routing_is_a_subscriber(self):
        """``num_vcis > 1``: a seam whose one subscriber routes the
        modeled CS and the injection lanes; every other event is a
        no-op or the plain route."""
        proc = World(1, BuildConfig(num_vcis=4)).proc(0)
        hooks = proc.hooks
        assert hooks is not None and hooks.route == proc.vci_for
        assert hooks.enter_call is _skip and hooks.send is _skip
        assert hooks.comm_check is None and hooks.deliver is None
        assert World(1, BuildConfig(sanitize=True)).proc(0).hooks.route \
            is None

    def test_one_subscriber_events_are_its_own_methods(self):
        """No seam frame between a call site and a lone subscriber."""
        hooks = World(1, BuildConfig(sanitize=True)).proc(0).hooks
        san = hooks.sanitizer
        assert hooks.acquire == san.note_acquire
        assert hooks.finish == san.note_finish
        assert hooks.enter_call == san.note_api
        assert hooks.recv_posted is _skip and hooks.deliver is None
        hooks = World(1, BuildConfig(
            fault_plan=FaultPlan())).proc(0).hooks
        assert hooks.enter_call == hooks.faults.check_self
        assert hooks.deliver == hooks.faults.deliver
        assert hooks.acquire is _skip

    def test_several_subscribers_fire_in_order(self, monkeypatch):
        """``finish``: the race detector's read, then the sanitizer."""
        from repro.sanitize.runtime import RankSanitizer
        from repro.tsan.detector import WorldTsan
        order = []
        for cls, name, label in ((WorldTsan, "hb_consume", "tsan"),
                                 (RankSanitizer, "note_finish",
                                  "sanitizer")):
            def noted(self, arg, _hook=getattr(cls, name), _label=label):
                order.append(_label)
                return _hook(self, arg)
            monkeypatch.setattr(cls, name, noted)
        proc = World(1, BuildConfig(sanitize=True, tsan=True)).proc(0)
        request = proc.request_pool.acquire(RequestKind.SEND)
        request.complete(0.0)
        order.clear()
        request.wait()
        assert order == ["tsan", "sanitizer"]
        proc.request_pool.release(request)

    def test_timeline_keeps_the_request_regime(self):
        """A timeline switched on makes a plain rank's seam for the
        call events only: the request pool, and every request it makes
        from then on, keep the build's regime; switched off, it takes
        the seam with it."""
        from repro.analysis.timeline import disable_timeline, enable_timeline
        world = World(1)
        proc = world.proc(0)
        enable_timeline(world)
        assert proc.hooks is not None and proc.hooks.timeline is not None
        assert proc.request_pool._hooks is None
        assert proc.request_pool.acquire(RequestKind.SEND)._hooks is None
        disable_timeline(world)
        assert proc.hooks is None

    def test_lock_factory_and_race_keys(self):
        plain = make_lock(None, "engine", "mq0", reentrant=True)
        assert isinstance(plain, type(threading.RLock()))
        assert race_key(None, "mq", 0) is None
        hooks = World(1, BuildConfig(tsan=True)).proc(0).hooks
        lock = make_lock(hooks, "engine", "mq0")
        assert (lock.kind, lock.name) == ("engine", "r0.mq0")
        assert race_key(hooks, "mq", 0) == ("mq", 0)

    @pytest.mark.parametrize("config", [
        BuildConfig(sanitize=True), BuildConfig(tsan=True),
        BuildConfig(fault_plan=FaultPlan()),
        BuildConfig(progress="thread"), BuildConfig(num_vcis=4)])
    def test_every_hooked_build_has_one_seam_per_rank(self, config):
        world = World(2, config)
        seams = [proc.hooks for proc in world.procs]
        assert all(s is not None for s in seams)
        assert [s.rank for s in seams] == [0, 1]
        assert all(proc.request_pool._hooks is proc.hooks
                   for proc in world.procs)
