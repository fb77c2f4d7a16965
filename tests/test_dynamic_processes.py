"""Dynamic processes & failure detection (PR 10).

Covers the churn-resilience layer end to end: named ports with
connect/accept (exactly-once claim semantics, timeouts, closed-port
errors), ``MPI_Comm_spawn`` + ``MPI_Comm_get_parent``, MPI-4 sessions
joining and leaving a *running* world, the heartbeat failure detector
(clean departure vs. unannounced death, no false positives under a
lossy-but-alive wire), and the two fault-hardening regressions: a rank
killed mid-hierarchical-allreduce surfaces ``MPI_ERR_PROC_FAILED`` /
``MPI_ERR_REVOKED`` instead of hanging (and ``MPIX_Comm_shrink``
invalidates the stale hierarchy cache), and ``MPIX_Comm_agree``
completes when a member's plan kill becomes due *during* the round.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import extensions as ext
from repro.core.config import BuildConfig
from repro.errors import (MPIErrComm, MPIErrPort, MPIErrProcFailed,
                          MPIErrRevoked, MPIErrSpawn)
from repro.fabric.topology import Topology
from repro.ft import (ERRORS_RETURN, DetectorConfig, FaultPlan, RankKilled,
                      WorldDetector)
from repro.ft import detector as ftdet
from repro.mpi import reduceops
from repro.mpi.intercomm import (close_port, comm_accept, comm_connect,
                                 comm_spawn, get_parent, open_port)
from repro.mpi.session import Session
from repro.runtime.world import World

#: Fast-converging detector for tests (confirm within ~0.2 s silence).
FAST_DETECTOR = DetectorConfig(period_s=0.005, suspect_s=0.05,
                               confirm_s=0.2)


def _ft_config(**kw):
    """A fault-tolerant build (lossless wire unless a plan says so)."""
    kw.setdefault("fault_plan", FaultPlan())
    return BuildConfig(**kw)


def _echo_server(comm, port, n_clients):
    """Accept *n_clients* sequentially; echo until bye or death.

    Returns (outcomes, leaked) where each outcome is
    ``("bye" | "died", n_served)`` and *leaked* is the matching
    engine's pending posted+unexpected count at close.
    """
    comm.set_errhandler(ERRORS_RETURN)
    outcomes = []
    for _ in range(n_clients):
        inter = comm_accept(port, comm, timeout=30.0)
        inter.set_errhandler(ERRORS_RETURN)
        served = 0
        while True:
            try:
                message = inter.recv(source=0, tag=0)
                if message == "bye":
                    outcomes.append(("bye", served))
                    break
                served += 1
                # The reply can fail too: a client that dies right
                # after sending never acks the echo.
                inter.send(message * 2, dest=0, tag=0)
            except (MPIErrProcFailed, MPIErrRevoked):
                ext.MPIX_Comm_revoke(inter)
                outcomes.append(("died", served))
                break
    close_port(comm, port)
    posted, unexpected = comm.proc.engine.pending_counts()
    return outcomes, posted + unexpected


def _session_client(world, port, n_requests):
    """One well-behaved session client; returns the echoed replies."""
    with Session(world, name="t-client") as session:
        inter = session.connect(port)
        inter.set_errhandler(ERRORS_RETURN)
        got = []
        for i in range(n_requests):
            inter.send(i + 1, dest=0, tag=0)
            got.append(inter.recv(source=0, tag=0))
        inter.send("bye", dest=0, tag=0)
        return got


class TestPorts:
    """open_port / close_port / comm_accept / comm_connect."""

    def test_open_close_and_closed_port_raises(self):
        def fn(comm):
            a = open_port(comm)
            b = open_port(comm)
            assert a != b and a.startswith("port#")
            close_port(comm, a)
            with pytest.raises(MPIErrPort):
                comm_connect(a, comm, retries=2, backoff_s=0.01)
            close_port(comm, b)
            return a

        World(1, BuildConfig()).run(fn)

    def test_connect_unknown_port_raises(self):
        def fn(comm):
            with pytest.raises(MPIErrPort):
                comm_connect("port#4096", comm, retries=2,
                             backoff_s=0.01)

        World(1, BuildConfig()).run(fn)

    def test_accept_times_out_without_client(self):
        def fn(comm):
            port = open_port(comm)
            t0 = time.monotonic()
            with pytest.raises(MPIErrPort):
                comm_accept(port, comm, timeout=0.2)
            assert time.monotonic() - t0 < 10.0
            close_port(comm, port)

        World(1, BuildConfig()).run(fn)

    def test_connect_exhausts_retries_without_server(self):
        def fn(comm):
            port = open_port(comm)
            # Nobody ever accepts: the retry-with-backoff loop must
            # give up with MPI_ERR_PORT, not spin forever.
            with pytest.raises(MPIErrPort):
                comm_connect(port, comm, retries=3, backoff_s=0.005)
            close_port(comm, port)

        World(1, BuildConfig()).run(fn)

    def test_racing_clients_each_claim_exactly_one_accept(self):
        """N clients race one port; every accept pairs with exactly
        one connect and every client is served exactly once."""
        n_clients = 4
        world = World(1, BuildConfig())
        port = world.ports.open_port()
        replies = [None] * n_clients

        def client(idx):
            replies[idx] = _session_client(world, port, n_requests=2)

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        outcomes, leaked = world.run(
            _echo_server, args=(port, n_clients))[0]
        for t in threads:
            t.join(timeout=60.0)

        assert outcomes == [("bye", 2)] * n_clients
        assert leaked == 0
        assert replies == [[2, 4]] * n_clients
        stats = world.ports.stats()
        assert stats["n_accepts"] == n_clients
        assert stats["n_connects"] == n_clients


class TestSpawn:
    """MPI_Comm_spawn / MPI_Comm_get_parent / join_dynamic."""

    def test_spawn_children_report_to_parent(self):
        nprocs = 2

        def child(comm):
            # Children share their own world: allreduce among
            # themselves, then report to parent rank 0 over the
            # parent intercommunicator.
            assert comm.size == nprocs
            total = comm.allreduce(comm.rank + 1, op=reduceops.SUM)
            parent = get_parent(comm)
            parent.send((comm.rank, total), dest=0, tag=1)
            return total

        def fn(comm):
            if comm.rank == 0:
                inter = comm_spawn(comm, child, nprocs)
                reports = sorted(inter.recv(source=r, tag=1)
                                 for r in range(nprocs))
                return reports
            return None

        world = World(2, BuildConfig())
        results = world.run(fn)
        expected_total = nprocs * (nprocs + 1) // 2
        assert results[0] == [(r, expected_total) for r in range(nprocs)]
        dynamic = world.join_dynamic()
        assert sorted(dynamic.values()) == [expected_total] * nprocs
        assert world.nranks == 2 + nprocs   # the world really grew

    def test_spawn_rejects_nonpositive_nprocs(self):
        def fn(comm):
            with pytest.raises(MPIErrSpawn):
                comm_spawn(comm, lambda c: None, 0)

        World(1, BuildConfig()).run(fn)

    def test_get_parent_on_non_spawned_rank_raises(self):
        def fn(comm):
            with pytest.raises(MPIErrComm):
                get_parent(comm)

        World(1, BuildConfig()).run(fn)


class TestSession:
    """MPI-4 sessions: join a running world, talk, leave."""

    def test_lifecycle_grow_finalize_idempotent(self):
        world = World(1, BuildConfig())
        base = world.nranks
        session = Session(world, name="t-life")
        assert world.nranks == base + 1
        assert session.comm.size == 1
        assert not session.finalized
        session.finalize()
        assert session.finalized
        session.finalize()   # idempotent by contract
        with pytest.raises(MPIErrComm):
            session.connect("port#0")

    def test_context_manager_finalizes(self):
        world = World(1, BuildConfig())
        with Session(world, name="t-ctx") as session:
            assert not session.finalized
        assert session.finalized

    def test_session_roundtrip_through_accept(self):
        world = World(1, BuildConfig())
        port = world.ports.open_port()
        replies = []
        thread = threading.Thread(
            target=lambda: replies.append(
                _session_client(world, port, n_requests=3)),
            daemon=True)
        thread.start()
        outcomes, leaked = world.run(_echo_server, args=(port, 1))[0]
        thread.join(timeout=60.0)
        assert outcomes == [("bye", 3)]
        assert leaked == 0
        assert replies == [[2, 4, 6]]


class TestDetector:
    """Heartbeat failure detector: config, escalation, departures."""

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(period_s=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(suspect_s=1.0, confirm_s=0.5)

    def test_detector_requires_fault_build(self):
        # The detector's confirmation path *is* WorldFaults.mark_dead:
        # without the ULFM substrate there is nothing to escalate to.
        with pytest.raises(ValueError):
            World(1, BuildConfig(detector=FAST_DETECTOR))

    def test_plain_build_has_no_detector(self):
        world = World(1, BuildConfig())
        assert world.detector is None
        assert isinstance(
            World(1, _ft_config(detector=FAST_DETECTOR)).detector,
            WorldDetector)

    def test_clean_departure_is_not_a_death(self):
        world = World(1, _ft_config(detector=FAST_DETECTOR))
        session = Session(world, name="t-departs")
        rank = session.comm.proc.world_rank
        session.finalize()
        time.sleep(FAST_DETECTOR.confirm_s * 1.5)
        world.detector.tick()
        stats = world.detector.stats()
        assert stats["n_departed"] == 1
        assert stats["n_confirmed"] == 0
        assert world.detector.state_of(rank) == ftdet.DEPARTED
        assert not world.ft.is_dead(rank)

    def test_unannounced_silence_escalates_to_dead(self):
        world = World(1, _ft_config(detector=FAST_DETECTOR))
        session = Session(world, name="t-vanishes")
        rank = session.comm.proc.world_rank
        # The session goes silent without finalize: suspect first...
        time.sleep(FAST_DETECTOR.suspect_s * 1.5)
        world.detector.tick()
        assert world.detector.state_of(rank) == ftdet.SUSPECT
        # ...then confirmed dead once the silence crosses confirm_s.
        deadline = time.monotonic() + 10.0
        while (world.detector.stats()["n_confirmed"] == 0
               and time.monotonic() < deadline):
            world.detector.tick()
            time.sleep(0.01)
        stats = world.detector.stats()
        assert stats["n_confirmed"] == 1
        assert world.detector.state_of(rank) == ftdet.DEAD
        assert world.ft.is_dead(rank)

    def test_beat_clears_suspicion(self):
        world = World(1, _ft_config(detector=FAST_DETECTOR))
        session = Session(world, name="t-slow")
        rank = session.comm.proc.world_rank
        time.sleep(FAST_DETECTOR.suspect_s * 1.5)
        world.detector.tick()
        assert world.detector.state_of(rank) == ftdet.SUSPECT
        world.detector.beat(rank)
        world.detector.tick()
        assert world.detector.state_of(rank) == ftdet.ALIVE
        assert world.detector.stats()["n_cleared"] >= 1
        session.finalize()


class TestChurnProperties:
    """Satellite 3: connect/accept + detector under a misbehaving
    wire, across seeds, VCI counts, and progress modes."""

    @pytest.mark.parametrize("seed", (1, 2))
    @pytest.mark.parametrize("num_vcis", (1, 4))
    @pytest.mark.parametrize("progress", (None, "thread"))
    def test_lossy_wire_no_hangs_no_false_kills(self, seed, num_vcis,
                                                progress):
        """Drop/delay-only plans: every client completes, accepts are
        exactly-once, and the detector never kills a live rank."""
        plan = FaultPlan(seed=seed, drop_rate=0.05, delay_rate=0.2,
                         delay_s=5e-4)
        config = BuildConfig(fault_plan=plan, detector=FAST_DETECTOR,
                             num_vcis=num_vcis, progress=progress)
        n_clients, n_requests = 3, 3
        world = World(1, config)
        port = world.ports.open_port()
        replies = [None] * n_clients

        def client(idx):
            replies[idx] = _session_client(world, port, n_requests)

        threads = [threading.Thread(target=client, args=(i,),
                                    daemon=True)
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        outcomes, leaked = world.run(
            _echo_server, args=(port, n_clients), timeout=120.0)[0]
        for t in threads:
            t.join(timeout=60.0)

        assert outcomes == [("bye", n_requests)] * n_clients
        assert leaked == 0
        assert replies == [[2, 4, 6]] * n_clients
        stats = world.ports.stats()
        assert stats["n_accepts"] == n_clients
        assert stats["n_connects"] == n_clients
        det = world.detector.stats()
        assert det["n_confirmed"] == 0, \
            f"false kill under a delay-only plan: {det}"
        assert det["n_departed"] == n_clients

    @pytest.mark.parametrize("num_vcis", (1, 4))
    def test_plan_killed_client_fails_cleanly(self, num_vcis):
        """A session client whose plan kill fires mid-conversation:
        the server surfaces the failure and leaks nothing."""
        # Session clients take world ranks 1.. in creation order; the
        # crasher connects first, so kill_rank=1 is deterministic.
        plan = FaultPlan(seed=3, kill_rank=1, kill_after_sends=1)
        config = BuildConfig(fault_plan=plan, detector=FAST_DETECTOR,
                             num_vcis=num_vcis)
        world = World(1, config)
        port = world.ports.open_port()
        done = threading.Event()
        tail = []

        def churn():
            session = Session(world, name="t-crasher")
            inter = session.connect(port)
            inter.set_errhandler(ERRORS_RETURN)
            try:
                inter.send("boom", dest=0, tag=0)
                inter.recv(source=0, tag=0)   # check_self kills here
            except RankKilled:
                pass
            done.set()
            # A healthy client after the crash proves the server and
            # the port survived the death.
            tail.append(_session_client(world, port, n_requests=2))

        thread = threading.Thread(target=churn, daemon=True)
        thread.start()
        outcomes, leaked = world.run(
            _echo_server, args=(port, 2), timeout=120.0)[0]
        thread.join(timeout=60.0)

        assert done.is_set()
        assert outcomes[0][0] == "died"
        assert outcomes[1] == ("bye", 2)
        assert leaked == 0
        assert tail == [[2, 4]]
        assert world.ft.is_dead(1)


class TestHierarchicalFaultHardening:
    """Satellite 1: a rank killed inside a topology-aware collective
    must surface an MPI error on the survivors, and recovery must not
    reuse the stale hierarchy."""

    def test_kill_mid_hierarchical_allreduce_then_recover(self):
        # kill_after_sends=0: rank 3 dies at its first MPI call — the
        # Allreduce entry — so every survivor is inside the staged
        # collective when the death lands.
        plan = FaultPlan(seed=11, kill_rank=3, kill_after_sends=0)
        config = BuildConfig(fault_plan=plan,
                             communicator_name="hierarchical")
        topo = Topology(nranks=4, cores_per_node=2)
        world = World(4, config, topology=topo)

        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            send = np.full(64, comm.rank + 1, dtype=np.int64)
            recv = np.empty_like(send)
            try:
                comm.Allreduce(send, recv, reduceops.SUM)
            except (MPIErrProcFailed, MPIErrRevoked):
                ext.MPIX_Comm_revoke(comm)
                shrunk = ext.MPIX_Comm_shrink(comm)
                # Satellite 1: shrink must drop the cached hierarchy —
                # its subcommunicators snapshot the dead roster.
                assert comm._hier_ctx is None
                assert ext.MPIX_Comm_agree(shrunk, True)
                send2 = np.full(16, comm.rank + 1, dtype=np.int64)
                recv2 = np.empty_like(send2)
                shrunk.Allreduce(send2, recv2, reduceops.SUM)
                expected = sum(r + 1
                               for r in shrunk.group.world_ranks)
                assert (recv2 == expected).all()
                return "recovered"
            return "clean"

        results = world.run(fn, timeout=120.0)
        assert results[3] is None               # the killed rank
        assert all(r == "recovered" for r in results[:3]), results


class TestAgreeUnderFailure:
    """Satellite 2: MPIX_Comm_agree tolerates a member dying during
    the agreement round (seeded regression)."""

    def test_rank_dies_inside_the_round(self):
        # Rank 1 crosses its kill threshold right before entering the
        # agreement: the rendezvous's in-loop kill_pending poll — not
        # a per-call entry check — is what must catch it, i.e. the
        # rank dies *during* the round with its deposit withdrawn.
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
            # Arrive late so rank 1 is already parked inside the
            # rendezvous when its kill becomes due.
            time.sleep(0.3)
            return ext.MPIX_Comm_agree(comm, True)

        results = World(3, BuildConfig(fault_plan=plan)).run(
            fn, timeout=60.0)
        assert results[1] is None
        assert results[0] is True and results[2] is True

    def test_agree_is_a_fault_aware_and(self):
        def fn(comm):
            return ext.MPIX_Comm_agree(comm, comm.rank != 1)

        results = World(3, _ft_config()).run(fn)
        assert results == [False, False, False]
