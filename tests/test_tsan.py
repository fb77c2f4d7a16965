"""Hybrid race/deadlock detector (``repro.tsan``): unit algebra,
seeded true-positive fixtures for TS401-TS404, and the runtime stress
suite that must come back clean under ``tsan=True``."""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.ft import FaultPlan
from repro.runtime.world import World
from repro.tsan import TS_RULES, WorldTsan, render_ts_catalog
from repro.tsan.vectorclock import Epoch, VectorClock


def _in_thread(fn):
    """Run *fn* to completion on a fresh thread (its own detector tid)."""
    err = []

    def body():
        try:
            fn()
        except BaseException as exc:   # pragma: no cover - surfacing
            err.append(exc)

    t = threading.Thread(target=body)
    t.start()
    t.join()
    if err:
        raise err[0]


def _rule_ids(tsan: WorldTsan) -> list[str]:
    return [f.rule_id for f in tsan.findings]


class TestVectorClockAlgebra:
    """The FastTrack clock/epoch primitives."""

    def test_join_is_componentwise_max(self):
        a, b = VectorClock({0: 3, 1: 1}), VectorClock({1: 5, 2: 2})
        a.join(b)
        assert (a.get(0), a.get(1), a.get(2)) == (3, 5, 2)

    def test_leq_detects_ordering(self):
        a = VectorClock({0: 2})
        b = VectorClock({0: 3, 1: 1})
        assert a.leq(b) and not b.leq(a)

    def test_epoch_happens_before_is_one_lookup(self):
        e = Epoch(1, 4)
        assert e.happens_before(VectorClock({1: 4}))
        assert not e.happens_before(VectorClock({1: 3}))
        assert not e.happens_before(VectorClock({0: 9}))


class TestSeededRaces:
    """Each TS rule fires on its minimal seeded-racy fixture."""

    def test_ts401_unordered_unlocked_writes(self):
        tsan = WorldTsan()
        _in_thread(lambda: tsan.note_access("field", what="the field"))
        _in_thread(lambda: tsan.note_access("field", what="the field"))
        assert _rule_ids(tsan) == ["TS401"]
        assert "the field" in tsan.report()[0]

    def test_ts401_read_write_race(self):
        tsan = WorldTsan()
        _in_thread(lambda: tsan.note_access("f", write=False))
        _in_thread(lambda: tsan.note_access("f", write=True))
        assert _rule_ids(tsan) == ["TS401"]

    def test_ts401_suppressed_by_common_lock(self):
        tsan = WorldTsan()
        lock = tsan.make_lock("engine", "mq")

        def access():
            with lock:
                tsan.note_access("field")

        _in_thread(access)
        _in_thread(access)
        assert _rule_ids(tsan) == []

    def test_ts401_suppressed_by_message_edge(self):
        tsan = WorldTsan()

        def publisher():
            tsan.note_access("field")
            tsan.hb_publish("handoff")

        def consumer():
            tsan.hb_consume("handoff")
            tsan.note_access("field")

        _in_thread(publisher)
        _in_thread(consumer)
        assert _rule_ids(tsan) == []

    def test_ts401_suppressed_by_fork_edge(self):
        tsan = WorldTsan()

        def parent():
            tsan.note_access("field")
            tsan.thread_fork("child")

        def child():
            tsan.thread_begin("child")
            tsan.note_access("field")

        _in_thread(parent)
        _in_thread(child)
        assert _rule_ids(tsan) == []

    def test_ts401_lock_edges_order_alternating_holders(self):
        # Classic FastTrack: same lock, alternating writers — the
        # release/acquire chain orders them, lockset never empty.
        tsan = WorldTsan()
        lock = tsan.make_lock("request", "req")

        def access():
            with lock:
                tsan.note_access("state")

        for _ in range(3):
            _in_thread(access)
        assert _rule_ids(tsan) == []

    def test_ts402_lock_order_inversion(self):
        tsan = WorldTsan()
        a = tsan.make_lock("engine", "A")
        b = tsan.make_lock("engine", "B")

        def inverted():
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass

        _in_thread(inverted)
        assert _rule_ids(tsan) == ["TS402"]
        assert "A" in tsan.report()[0] and "B" in tsan.report()[0]

    def test_ts402_consistent_order_clean(self):
        tsan = WorldTsan()
        a = tsan.make_lock("engine", "A")
        b = tsan.make_lock("engine", "B")

        def consistent():
            for _ in range(2):
                with a:
                    with b:
                        pass

        _in_thread(consistent)
        assert _rule_ids(tsan) == []

    def test_ts403_lock_held_across_blocking_wait(self):
        tsan = WorldTsan()
        lock = tsan.make_lock("engine", "mq")

        def blocker():
            with lock:
                tsan.check_blocking_wait("recv request")

        _in_thread(blocker)
        assert _rule_ids(tsan) == ["TS403"]

    def test_ts403_sched_lock_exempt(self):
        # The NBC schedule lock deliberately spans inner waits.
        tsan = WorldTsan()
        lock = tsan.make_lock("sched", "nbc")

        def blocker():
            with lock:
                tsan.check_blocking_wait("recv request")

        _in_thread(blocker)
        assert _rule_ids(tsan) == []

    def test_ts404_continuation_under_engine_lock(self):
        tsan = WorldTsan()
        lock = tsan.make_lock("shard", "mq0")

        def dispatch():
            with lock:
                tsan.check_continuation("continuation")

        _in_thread(dispatch)
        assert _rule_ids(tsan) == ["TS404"]

    def test_ts404_cs_lock_dispatch_allowed(self):
        # Continuations run under the rank's reentrant VCI lock by
        # documented engine design.
        tsan = WorldTsan()
        lock = tsan.make_lock("vci", "vci0")

        def dispatch():
            with lock:
                tsan.check_continuation("continuation")

        _in_thread(dispatch)
        assert _rule_ids(tsan) == []

    def test_findings_deduplicate(self):
        tsan = WorldTsan()
        _in_thread(lambda: tsan.note_access("f"))
        for _ in range(3):
            _in_thread(lambda: tsan.note_access("f"))
        assert _rule_ids(tsan) == ["TS401"]

    def test_assert_clean_raises_with_findings(self):
        tsan = WorldTsan()
        _in_thread(lambda: tsan.note_access("f"))
        _in_thread(lambda: tsan.note_access("f"))
        with pytest.raises(AssertionError, match="TS401"):
            tsan.assert_clean()


class TestConditionIntegration:
    """TsanLock under threading.Condition: waiters hold nothing."""

    def test_waiter_does_not_hold_lock_during_wait(self):
        tsan = WorldTsan()
        cv = threading.Condition(tsan.make_lock("progress_cv", "cv"))
        started = threading.Event()

        def waiter():
            with cv:
                started.set()
                cv.wait(timeout=10.0)
                # Woken and reacquired: a blocking check *here* should
                # fire (we hold the cv lock again)...

        def waker():
            started.wait(timeout=10.0)
            with cv:
                # ...but the parked waiter holds nothing right now:
                tsan.check_blocking_wait("probe while waiter parked")
                cv.notify_all()

        threads = [threading.Thread(target=waiter),
                   threading.Thread(target=waker)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one finding: the waker's own held cv lock (TS403) —
        # nothing from the parked waiter's released lock.
        assert _rule_ids(tsan) == ["TS403"]
        assert "progress_cv" in tsan.report()[0]


_STRESS_MATRIX = [
    BuildConfig(thread_safety=True, tsan=True),
    BuildConfig(thread_safety=True, tsan=True, num_vcis=4),
    BuildConfig(thread_safety=True, tsan=True, num_vcis=2,
                progress="thread"),
    BuildConfig(thread_safety=True, tsan=True, num_vcis=4,
                progress="per-vci"),
]

_FT_MATRIX = [
    BuildConfig(thread_safety=True, tsan=True, num_vcis=2,
                fault_plan=FaultPlan(seed=7, drop_rate=0.08,
                                     reorder_rate=0.15,
                                     duplicate_rate=0.08)),
    BuildConfig(thread_safety=True, tsan=True, num_vcis=2,
                progress="thread",
                fault_plan=FaultPlan(seed=7, drop_rate=0.08,
                                     reorder_rate=0.15,
                                     duplicate_rate=0.08)),
]


def _run_clean(nranks, fn, config, timeout=120.0):
    """Run and assert the detector saw nothing."""
    world = World(nranks, config)
    results = world.run(fn, timeout=timeout)
    assert world.tsan is not None
    world.tsan.assert_clean()
    assert world.tsan.n_lock_events > 0
    return results


class TestStressSuiteClean:
    """The real runtime under the detector: zero findings.

    These are the seeded stress scenarios from
    ``test_stress_concurrency.py`` re-run with ``tsan=True`` across the
    progress/VCI matrix — the acceptance gate that the instrumented
    runtime is free of TS401-TS404 defects the detector can observe."""

    @pytest.mark.parametrize("config", _STRESS_MATRIX,
                             ids=lambda c: f"vcis{c.num_vcis}-"
                                           f"{c.progress or 'inline'}")
    def test_threaded_flood_clean(self, config):
        nthreads, n = 3, 12

        def main(comm):
            peer = 1 - comm.rank
            out = [None] * nthreads

            def worker(tid):
                sreqs = [comm.Isend(
                    np.full(1, comm.rank * 1000.0 + tid * 100 + i),
                    dest=peer, tag=tid) for i in range(n)]
                buf = np.zeros(1)
                got = []
                for _ in range(n):
                    comm.Recv(buf, source=peer, tag=tid)
                    got.append(float(buf[0]))
                for r in sreqs:
                    r.wait()
                out[tid] = got

            workers = [threading.Thread(target=worker, args=(t,))
                       for t in range(nthreads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            comm.barrier()
            return out

        results = _run_clean(2, main, config)
        for rank, out in enumerate(results):
            src = 1 - rank
            for tid, got in enumerate(out):
                assert got == [src * 1000.0 + tid * 100 + i
                               for i in range(n)]

    @pytest.mark.parametrize("config", _STRESS_MATRIX,
                             ids=lambda c: f"vcis{c.num_vcis}-"
                                           f"{c.progress or 'inline'}")
    def test_cancel_storm_clean(self, config):
        nthreads, n = 2, 16

        def main(comm):
            if comm.rank == 0:
                def sender(tid):
                    reqs = [comm.Isend(np.full(2, float(i)), dest=1,
                                       tag=tid) for i in range(n)]
                    for r in reqs:
                        r.wait()

                workers = [threading.Thread(target=sender, args=(t,))
                           for t in range(nthreads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
                comm.barrier()
                return None

            out = [None] * nthreads

            def receiver(tid):
                buf = np.zeros(2)
                values, cancelled = [], 0
                for i in range(n):
                    req = comm.Irecv(buf, source=0, tag=tid)
                    if i % 2 and comm.proc.engine.cancel_posted(req):
                        cancelled += 1
                        continue
                    req.wait()
                    values.append(float(buf[0]))
                out[tid] = (values, cancelled)

            workers = [threading.Thread(target=receiver, args=(t,))
                       for t in range(nthreads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            comm.barrier()
            buf = np.zeros(2)
            for tid, (values, cancelled) in enumerate(out):
                for _ in range(cancelled):
                    comm.Recv(buf, source=0, tag=tid)
                    values.append(float(buf[0]))
            return [values for values, _ in out]

        values_by_tag = _run_clean(2, main, config)[1]
        for values in values_by_tag:
            assert values == [float(i) for i in range(n)]

    @pytest.mark.parametrize("config", _STRESS_MATRIX,
                             ids=lambda c: f"vcis{c.num_vcis}-"
                                           f"{c.progress or 'inline'}")
    def test_wildcard_drain_clean(self, config):
        nthreads, n = 2, 10

        def main(comm):
            from repro.consts import ANY_SOURCE, ANY_TAG
            if comm.rank == 0:
                def sender(tid):
                    for i in range(n):
                        comm.Isend(np.full(1, tid * 100.0 + i),
                                   dest=1, tag=tid).wait()

                workers = [threading.Thread(target=sender, args=(t,))
                           for t in range(nthreads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
                return None

            got = []
            buf = np.zeros(1)
            for _ in range(nthreads * n):
                comm.Recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                got.append(float(buf[0]))
            return got

        got = _run_clean(2, main, config)[1]
        expected = sorted(t * 100.0 + i
                          for t in range(nthreads) for i in range(n))
        assert sorted(got) == expected

    @pytest.mark.parametrize("config", _FT_MATRIX,
                             ids=["ft-inline", "ft-progress"])
    def test_fault_injection_clean(self, config):
        def main(comm):
            rank = comm.rank
            reqs = []
            for i in range(12):
                reqs.append(comm.isend((rank, i),
                                       (rank + 1) % comm.size, tag=i))
                reqs.append(comm.irecv((rank - 1) % comm.size, tag=i))
            for r in reqs:
                r.wait()
            return comm.allreduce(1)

        assert _run_clean(3, main, config) == [3, 3, 3]

    def test_nbc_under_progress_clean(self):
        config = BuildConfig(thread_safety=True, tsan=True, num_vcis=2,
                             progress="thread")

        def main(comm):
            r1 = comm.iallreduce(comm.rank)
            r2 = comm.ibarrier()
            r1.wait()
            r2.wait()
            return r1.result

        assert _run_clean(4, main, config) == [6, 6, 6, 6]


class TestPoolHandoffEdge:
    """The request pool takes no lock: the happens-before edge from a
    handle's last life to its next comes from the seam — ``release``
    publishes under the handle's race key, ``acquire`` consumes it
    before ``_reset`` writes the recycled state."""

    def _handoff(self, with_edge):
        """One thread of rank 0 completes, waits on and releases a
        handle; another acquires it next.  Returns the detector."""
        from repro.runtime.hooks import _skip
        from repro.runtime.request import RequestKind
        world = World(1, BuildConfig(thread_safety=True, tsan=True))
        hooks = world.proc(0).hooks
        # The release event's one subscriber on this build is the edge.
        assert hooks.release == hooks._publish_release
        if not with_edge:
            hooks.release = _skip

        def main(comm):
            pool = comm.proc.request_pool
            lives = []

            def releaser():
                req = pool.acquire(RequestKind.RECV)
                req.complete(comm.proc.vclock.now)
                req.wait()
                pool.release(req)
                lives.append(req)

            _in_thread(releaser)
            _in_thread(lambda: lives.append(pool.acquire(RequestKind.SEND)))
            return lives[0] is lives[1]

        assert world.run(main, timeout=60) == [True]
        return world.tsan

    def test_handoff_across_threads_is_clean(self):
        self._handoff(with_edge=True).assert_clean()

    def test_handoff_without_the_edge_is_a_race(self):
        tsan = self._handoff(with_edge=False)
        assert _rule_ids(tsan) == ["TS401"]
        assert "request state" in tsan.report()[0]


class TestZeroOverheadWhenDisabled:
    """tsan=False builds carry no detector objects at all."""

    def test_no_detector_objects_on_plain_build(self):
        world = World(2, BuildConfig())
        assert world.tsan is None
        for proc in world.procs:
            assert proc.hooks is None

    def test_results_identical_with_and_without(self):
        def main(comm):
            return comm.allreduce(comm.rank + 1)

        base = BuildConfig(thread_safety=True, num_vcis=2)
        plain = World(3, base).run(main)
        checked = World(3, replace(base, tsan=True)).run(main)
        assert plain == checked


class TestCatalog:
    """TS401-TS404 are catalogued and renderable."""

    def test_all_rules_present(self):
        assert set(TS_RULES) == {"TS401", "TS402", "TS403", "TS404"}
        assert all(rule.dynamic for rule in TS_RULES.values())

    def test_catalog_renders_every_rule(self):
        text = render_ts_catalog()
        for rule_id in TS_RULES:
            assert rule_id in text
