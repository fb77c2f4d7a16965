"""The hook seam (``proc.hooks``, :mod:`repro.runtime.hooks`): one
object between the runtime and its optional subsystems.

Two regressions came from the copies the seam replaced: a blocking
probe and a window-lock wait each wired their own subset of hooks, so
neither parked the rank with the failure detector, which then declared
a live, merely blocked rank dead.  Every blocked wait is now one seam
event.  The rest pins the seam's shape: None on a plain build, events
bound to their one subscriber's own method, a timeline that leaves
the request regime alone.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.ft import DetectorConfig, FaultPlan
from repro.mpi.rma import LOCK_EXCLUSIVE, Window
from repro.runtime import World
from repro.runtime.hooks import _skip, make_lock, race_key
from repro.runtime.request import RequestKind

#: Suspect after 0.1 s of silence, confirm after 0.3 s: a rank blocked
#: 0.8 s is dead to the roster unless its wait parks it.
FAST = DetectorConfig(0.01, 0.1, 0.3)
#: How long rank 2 keeps rank 0 waiting.
HOLD_S = 0.8


def _detector_world() -> World:
    return World(3, BuildConfig(fault_plan=FaultPlan(), detector=FAST))


def _assert_nobody_died(world: World) -> None:
    assert world.detector.stats()["n_confirmed"] == 0
    assert not world.ft.dead


class TestBlockedWaitsPark:
    """Rank 0 (monitored) blocks for ``HOLD_S``; rank 1 parks in a
    receive, whose detector slices keep scanning the roster."""

    def test_probe_parks_the_rank(self):
        def main(comm):
            if comm.rank == 0:
                comm.world.detector.register(comm.proc.world_rank)
                status = comm.probe(2, 5)
                assert comm.recv(2, 5) == "to 0"
                return status.source
            if comm.rank == 1:
                comm.Recv(np.zeros(1, np.uint8), 2, 6)
                return None
            time.sleep(HOLD_S)
            comm.send("to 0", 0, 5)
            comm.Send(np.ones(1, np.uint8), 1, 6)
            return None

        world = _detector_world()
        assert world.run(main, timeout=60) == [2, None, None]
        _assert_nobody_died(world)

    def test_window_lock_parks_the_rank(self):
        def main(comm):
            exposed = np.zeros(8, np.uint8)
            win = Window.create(comm, exposed, disp_unit=1)
            if comm.rank == 2:
                win.lock(2, LOCK_EXCLUSIVE)
            comm.barrier()
            if comm.rank == 0:
                comm.world.detector.register(comm.proc.world_rank)
                win.lock(2, LOCK_EXCLUSIVE)     # queued behind rank 2
                win.put(np.full(1, 9, np.uint8), 2, 0)
                win.unlock(2)
            elif comm.rank == 1:
                comm.Recv(np.zeros(1, np.uint8), 2, 6)
            else:
                time.sleep(HOLD_S)
                win.unlock(2)
                comm.Send(np.ones(1, np.uint8), 1, 6)
            win.free()
            return int(exposed[0]) if comm.rank == 2 else None

        world = _detector_world()
        assert world.run(main, timeout=60) == [None, None, 9]
        _assert_nobody_died(world)


class TestSeamShape:
    """What the seam is on each kind of build."""

    def test_plain_builds_have_no_seam(self):
        for config in (BuildConfig(), BuildConfig(num_vcis=4)):
            for proc in World(2, config).procs:
                assert proc.hooks is None
        assert World(1, BuildConfig(num_vcis=4)).proc(0).hooked

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
        call events only: ``hooked`` and the request pool's regime
        stay those of the build."""
        from repro.analysis.timeline import disable_timeline, enable_timeline
        world = World(1)
        proc = world.proc(0)
        enable_timeline(world)
        assert proc.hooks is not None and proc.armed and not proc.hooked
        assert proc.request_pool._hooks is None
        disable_timeline(world)
        assert not proc.armed and proc.hooks.enter_call is _skip

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
        BuildConfig(progress="thread")])
    def test_every_hooked_build_has_one_seam_per_rank(self, config):
        world = World(2, config)
        seams = [proc.hooks for proc in world.procs]
        assert all(s is not None for s in seams)
        assert [s.rank for s in seams] == [0, 1]
        assert all(proc.hooked for proc in world.procs)
