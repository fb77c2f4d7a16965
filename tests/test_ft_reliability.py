"""Fault-tolerant transport: injection, reliability, and recovery.

Property tests for :mod:`repro.ft`: seeded lossy fabrics must deliver
exactly-once in posted order per (source, tag) stream; a fault-plan
rank kill must surface ``MPI_ERR_PROC_FAILED`` on pending receives
under ``MPI_ERRORS_RETURN``; and the ``MPIX_Comm_*`` recovery
collectives must yield a working communicator over the survivors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import extensions as ext
from repro.core.config import BuildConfig
from repro.errors import MPIErrArg, MPIErrProcFailed, MPIErrRevoked
from repro.fabric.topology import Topology
from repro.ft import ERRORS_RETURN, FaultPlan
from repro.ft.injection import FaultyNetmod
from repro.mpi import reduceops
from repro.runtime.world import World

#: A plan lossy enough to exercise drop/dup/reorder on a 50-message run.
LOSSY = dict(drop_rate=0.1, duplicate_rate=0.1, reorder_rate=0.15)

N_MSGS = 40


def _lossy_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, **LOSSY)


class TestFaultPlan:
    """The plan is a pure, seeded function of the packet coordinates."""

    def test_fates_deterministic(self):
        plan = _lossy_plan(7)
        fates = [plan.fate(0, 1, seq, 0) for seq in range(100)]
        again = [_lossy_plan(7).fate(0, 1, seq, 0) for seq in range(100)]
        assert fates == again

    def test_seed_changes_fates(self):
        a = [_lossy_plan(1).fate(0, 1, s, 0) for s in range(100)]
        b = [_lossy_plan(2).fate(0, 1, s, 0) for s in range(100)]
        assert a != b

    def test_zero_plan_is_lossless(self):
        plan = FaultPlan()
        assert not plan.lossy
        for seq in range(50):
            fate = plan.fate(0, 1, seq, 0)
            assert not (fate.drop or fate.corrupt or fate.duplicate
                        or fate.reorder or fate.delay)

    def test_zero_rates_draw_nothing_and_change_no_fate(self):
        """Each draw is keyed by its name, so skipping the draws of
        zero rates leaves every fate of every plan as drawing all five
        would: a grid of coordinates over plans with some rates zero."""
        import itertools
        from repro.ft.plan import WireFate, _draw

        def drawing_all(plan, *at):
            return WireFate(
                drop=_draw(plan.seed, "drop", *at) < plan.drop_rate,
                corrupt=_draw(plan.seed, "corrupt", *at) < plan.corrupt_rate,
                duplicate=_draw(plan.seed, "dup", *at)
                < plan.duplicate_rate,
                reorder=_draw(plan.seed, "reorder", *at) < plan.reorder_rate,
                delay=_draw(plan.seed, "delay", *at) < plan.delay_rate)

        plans = [FaultPlan(), _lossy_plan(3),
                 FaultPlan(seed=5, drop_rate=0.4, reorder_rate=0.5),
                 FaultPlan(seed=9, duplicate_rate=0.6, delay_rate=0.3,
                           corrupt_rate=0.2),
                 FaultPlan(seed=1, drop_rate=1.0, duplicate_rate=0.0)]
        grid = itertools.product(range(3), range(3), (-2, -1, 0, 5), (0, 2))
        for at in grid:
            for plan in plans:
                assert plan.fate(*at) == drawing_all(plan, *at), (plan, at)

    def test_warm_lossless_cycle_draws_nothing(self):
        """An empty plan's wire makes no hash draw per message."""
        import sys
        from repro.mpi.comm import Communicator
        comm = Communicator.world_view(
            World(1, BuildConfig(fault_plan=FaultPlan())).proc(0))
        buf = np.zeros(1, np.uint8)

        def cycle():
            rreq = comm.Irecv(buf, 0, 1)
            comm.Isend(buf, 0, 1).wait()
            rreq.wait()

        cycle()
        draws = []
        sys.setprofile(lambda frame, event, arg: draws.append(1) if (
            event == "call" and frame.f_code.co_name == "_draw") else None)
        try:
            for _ in range(20):
                cycle()
        finally:
            sys.setprofile(None)
        assert not draws

    def test_retry_backoff_monotone(self):
        plan = FaultPlan()
        delays = [plan.backoff_s(a) for a in range(1, 10)]
        assert delays == sorted(delays)


class TestExactlyOnceDelivery:
    """Lossy wire, intact semantics: every payload arrives once, in
    posted order per (source, tag) stream."""

    @pytest.mark.parametrize("seed", [1, 7, 13])
    @pytest.mark.parametrize("num_vcis", [1, 4])
    def test_stream_exactly_once_in_order(self, seed, num_vcis):
        config = BuildConfig(fault_plan=_lossy_plan(seed),
                             num_vcis=num_vcis)

        def fn(comm):
            if comm.rank == 0:
                for i in range(N_MSGS):
                    comm.send(("payload", i), dest=1)
                return None
            return [comm.recv(source=0) for _ in range(N_MSGS)]

        world = World(2, config)
        results = world.run(fn)
        assert results[1] == [("payload", i) for i in range(N_MSGS)]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_bidirectional_streams_intact(self, seed):
        config = BuildConfig(fault_plan=_lossy_plan(seed))

        def fn(comm):
            me, peer = comm.rank, 1 - comm.rank
            reqs = [comm.isend((me, i), dest=peer) for i in range(N_MSGS)]
            got = [comm.recv(source=peer) for _ in range(N_MSGS)]
            for req in reqs:
                req.wait()
            return got

        world = World(2, config)
        results = world.run(fn)
        for me in (0, 1):
            assert results[me] == [(1 - me, i) for i in range(N_MSGS)]

    def test_faults_were_actually_injected(self):
        config = BuildConfig(fault_plan=_lossy_plan(7))
        stats = {}

        def fn(comm):
            if comm.rank == 0:
                for i in range(50):
                    comm.send(i, dest=1)
            else:
                for _ in range(50):
                    comm.recv(source=0)
            comm.barrier()
            proc = comm.proc
            netmod = proc.device.netmod
            assert isinstance(netmod, FaultyNetmod)
            stats[comm.rank] = (proc.hooks.faults.stats(), netmod.n_dropped,
                                netmod.n_duplicated, netmod.n_reordered)
            return None

        World(2, config).run(fn)
        sender, n_drop, n_dup, n_reorder = stats[0]
        assert sender["n_retransmits"] > 0
        assert n_drop > 0 and n_dup > 0 and n_reorder > 0
        receiver = stats[1][0]
        assert receiver["n_dup_dropped"] > 0
        assert receiver["n_ooo_buffered"] > 0

    def test_lossless_fault_build_charges_reliability(self):
        """A fault build on a perfect wire still pays the protocol's
        per-message overhead — the paper's point that reliability is a
        standing tax, not a failure-time one."""
        from repro.perf.msgrate import measure_call_record
        rec = measure_call_record(BuildConfig(fault_plan=FaultPlan()),
                                  "isend")
        by_cat = {cat.name: n for cat, n in rec.by_category.items()}
        assert by_cat["RELIABILITY"] == 43
        rec = measure_call_record(BuildConfig(fault_plan=None), "isend")
        by_cat = {cat.name: n for cat, n in rec.by_category.items() if n}
        assert "RELIABILITY" not in by_cat


class TestProcFailure:
    """A killed rank surfaces MPI_ERR_PROC_FAILED, not a hang."""

    def test_pending_recv_fails_with_proc_failed(self):
        plan = FaultPlan(kill_rank=2, kill_after_sends=3)

        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 2:
                for i in range(10):
                    comm.send(i, dest=0)
                return "never reached"
            if comm.rank == 1:
                return "idle"
            got = []
            for _ in range(10):
                try:
                    got.append(comm.recv(source=2))
                except MPIErrProcFailed as exc:
                    return got, exc.rank, exc.op, exc.error_class
            return got, None, None, None

        results = World(3, BuildConfig(fault_plan=plan)).run(fn)
        got, failed_rank, op, err_class = results[0]
        assert got == list(range(3))     # messages before the kill land
        assert failed_rank == 2
        assert op == "MPI_Irecv"
        assert err_class == "MPI_ERR_PROC_FAILED"
        assert results[2] is None        # the killed rank returns nothing

    def test_send_to_dead_rank_fails(self):
        plan = FaultPlan(kill_rank=1, kill_after_sends=0, max_retries=2)

        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 1:
                while True:         # killed at the first MPI entry
                    comm.recv(source=0)
            for _ in range(100):
                if comm.proc.world.ft.is_dead(1):
                    break
                import time
                time.sleep(0.01)
            try:
                comm.send("hello", dest=1)
                return "sent"
            except MPIErrProcFailed as exc:
                return exc.rank

        results = World(2, BuildConfig(fault_plan=plan)).run(fn)
        assert results[0] == 1

    def test_errhandler_callback_invoked(self):
        plan = FaultPlan(kill_rank=1, kill_after_sends=0)
        seen = []

        def fn(comm):
            if comm.rank == 1:
                comm.recv(source=0)   # killed at this MPI entry
                return None
            comm.set_errhandler(
                lambda c, exc: seen.append(type(exc).__name__))
            try:
                for _ in range(10):
                    comm.recv(source=1)
            except MPIErrProcFailed:
                return "handled"
            return "no error"

        results = World(2, BuildConfig(fault_plan=plan)).run(fn)
        assert results[0] == "handled"
        assert seen == ["MPIErrProcFailed"]


class TestPendingReceiveTable:
    """The fault layer tracks a posted receive for as long as its
    handle lives, keyed by the handle: a pooled handle recycled into a
    new receive is a new entry, and the table holds only the live
    receives."""

    def test_recycled_wildcard_receive_survives_a_peer_failure(self):
        """Rank 1's completed ``Recv(0, 5)`` left its handle in the
        pool; the wildcard ``Irecv`` that reuses it is immune to rank
        0's death and completes with rank 0's data."""
        from repro.consts import ANY_SOURCE

        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            buf = np.zeros(1, np.int64)
            if comm.rank == 0:
                comm.Send(np.full(1, 5, np.int64), 1, 5)
                comm.barrier()
                comm.Send(np.full(1, 6, np.int64), 1, 6)
                return None
            comm.Recv(buf, 0, 5)
            pool = comm.proc.request_pool
            reused = pool._free[-1]
            req = comm.Irecv(buf, ANY_SOURCE, 6)
            assert req is reused
            comm.proc.hooks.faults.fail_pending(0)
            comm.barrier()
            req.wait()
            pool.release(req)
            return int(buf[0]), req.source

        results = World(2, BuildConfig(fault_plan=FaultPlan())).run(
            fn, timeout=60)
        assert results[1] == (6, 0)

    def test_table_holds_only_the_live_receives(self):
        def fn(comm):
            proc = comm.proc
            table = proc.hooks.faults._pending_recvs
            send, recv = np.full(1, 7, np.uint8), np.zeros(1, np.uint8)
            release = proc.request_pool.release
            for _ in range(3000):
                rreq = comm.Irecv(recv, 0, 7)
                sreq = comm.Isend(send, 0, 7)
                sreq.wait()
                rreq.wait()
                release(sreq)
                release(rreq)
            after_cycles = len(table)
            live = [comm.Irecv(recv, 0, tag) for tag in (1, 2)]
            posted = len(table)
            for tag, req in zip((1, 2), live):
                comm.Send(send, 0, tag)
                req.wait()
                release(req)
            return after_cycles, posted, len(table)

        results = World(1, BuildConfig(fault_plan=FaultPlan())).run(
            fn, timeout=60)
        assert results == [(0, 2, 0)]

    def test_refused_release_keeps_the_receive_tracked(self):
        """The pool refuses to recycle a receive still pending; the
        receive lives on, so its source's death still fails it."""
        from repro.errors import MPIErrRequest

        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            comm.barrier()
            if comm.rank == 0:
                return None
            req = comm.Irecv(np.zeros(1, np.int64), 0, 9)
            with pytest.raises(MPIErrRequest):
                comm.proc.request_pool.release(req)
            comm.proc.world.ft.mark_dead(0)
            with pytest.raises(MPIErrProcFailed):
                req.wait()
            return "failed"

        results = World(2, BuildConfig(fault_plan=FaultPlan())).run(
            fn, timeout=30)
        assert results[1] == "failed"


class TestUlfmRecovery:
    """Revoke / shrink / agree rebuild a working communicator."""

    def test_revoke_raises_on_next_op(self):
        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 0:
                ext.MPIX_Comm_revoke(comm)
            try:
                comm.send(1, dest=(comm.rank + 1) % comm.size)
                return "no error"
            except MPIErrRevoked as exc:
                return exc.error_class

        results = World(2, BuildConfig(fault_plan=FaultPlan())).run(fn)
        assert results == ["MPI_ERR_REVOKED"] * 2

    def test_shrink_after_kill_yields_working_subcomm(self):
        plan = FaultPlan(kill_rank=3, kill_after_sends=0)

        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 3:
                comm.recv(source=0)   # killed at this MPI entry
                return None
            new = ext.MPIX_Comm_shrink(comm)
            assert new.get_errhandler() == ERRORS_RETURN
            total = new.allreduce(comm.rank)
            arr = np.full(4, float(new.rank))
            out = np.empty(4)
            new.Allreduce(arr, out)
            return new.size, total, out[0]

        results = World(4, BuildConfig(fault_plan=plan)).run(fn)
        for rank in (0, 1, 2):
            size, total, reduced = results[rank]
            assert size == 3
            assert total == 0 + 1 + 2
            assert reduced == 0.0 + 1.0 + 2.0
        assert results[3] is None

    def test_agree_is_fault_aware_and(self):
        def fn(comm):
            flag = comm.rank != 1   # rank 1 votes False
            return ext.MPIX_Comm_agree(comm, flag)

        results = World(3, BuildConfig(fault_plan=FaultPlan())).run(fn)
        assert results == [False, False, False]

        def fn_all(comm):
            return ext.MPIX_Comm_agree(comm, True)

        results = World(3, BuildConfig(fault_plan=FaultPlan())).run(fn_all)
        assert results == [True, True, True]

    def test_kill_mid_hierarchical_allreduce_then_recover(self):
        """A rank killed inside a topology-aware collective surfaces an
        MPI error on the survivors, and shrink drops the stale
        hierarchy before the shrunk communicator reduces again."""
        # kill_after_sends=0: rank 3 dies at its first MPI call — the
        # Allreduce entry — so every survivor is inside the staged
        # collective when the death lands.
        plan = FaultPlan(seed=11, kill_rank=3, kill_after_sends=0)
        config = BuildConfig(fault_plan=plan,
                             communicator_name="hierarchical")
        world = World(4, config, topology=Topology(nranks=4,
                                                   cores_per_node=2))

        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            send = np.full(64, comm.rank + 1, dtype=np.int64)
            recv = np.empty_like(send)
            try:
                comm.Allreduce(send, recv, reduceops.SUM)
            except (MPIErrProcFailed, MPIErrRevoked):
                ext.MPIX_Comm_revoke(comm)
                shrunk = ext.MPIX_Comm_shrink(comm)
                # Its subcommunicators snapshot the dead roster.
                assert comm._hier_ctx is None
                assert ext.MPIX_Comm_agree(shrunk, True)
                send2 = np.full(16, comm.rank + 1, dtype=np.int64)
                recv2 = np.empty_like(send2)
                shrunk.Allreduce(send2, recv2, reduceops.SUM)
                expected = sum(r + 1 for r in shrunk.group.world_ranks)
                assert (recv2 == expected).all()
                return "recovered"
            return "clean"

        results = world.run(fn, timeout=120.0)
        assert results[3] is None               # the killed rank
        assert all(r == "recovered" for r in results[:3]), results

    def test_rank_dies_inside_the_agreement_round(self):
        """A member whose plan kill is due when it enters
        ``MPIX_Comm_agree`` dies inside the round, its deposit
        withdrawn, and the survivors agree without it."""
        # Rank 1 crosses its kill threshold with its second send.  The
        # agreement has no per-call entry check: the rendezvous's
        # in-loop kill_pending poll is what must catch it.
        plan = FaultPlan(seed=7, kill_rank=1, kill_after_sends=2)

        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 1:
                comm.send("x", dest=0, tag=9)
                comm.send("y", dest=0, tag=9)
                ext.MPIX_Comm_agree(comm, True)
                return "unreachable"
            if comm.rank == 0:
                assert comm.recv(source=1, tag=9) == "x"
                assert comm.recv(source=1, tag=9) == "y"
            # Arrive only once rank 1 has died in the round, so it
            # waited there alone.
            ft = comm.world.ft
            with ft._cv:
                assert ft._cv.wait_for(lambda: ft.is_dead(1), timeout=60)
            return ext.MPIX_Comm_agree(comm, True)

        results = World(3, BuildConfig(fault_plan=plan)).run(
            fn, timeout=60.0)
        assert results[1] is None
        assert results[0] is True and results[2] is True

    def test_mpix_requires_fault_build(self):
        def fn(comm):
            with pytest.raises(MPIErrArg):
                ext.MPIX_Comm_revoke(comm)
            return "ok"

        assert World(1, BuildConfig()).run(fn) == ["ok"]

    def test_plain_build_has_no_fault_state(self):
        def fn(comm):
            return comm.proc.hooks is None, comm.proc.world.ft is None

        assert World(1, BuildConfig()).run(fn) == [(True, True)]
