"""Collective operations against reference results."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BuildConfig
from repro.errors import MPIErrArg, MPIErrOp, MPIErrRank
from repro.fabric.topology import Topology
from repro.mpi import reduceops
from repro.runtime.world import World
from tests.conftest import run_world

SIZES = (1, 2, 3, 4, 5, 8)


@pytest.mark.parametrize("size", SIZES)
class TestObjectCollectivesAllSizes:
    def test_barrier(self, size):
        def main(comm):
            for _ in range(3):
                comm.barrier()
            return "done"

        assert run_world(size, main) == ["done"] * size

    def test_bcast(self, size):
        def main(comm):
            return comm.bcast({"v": 42} if comm.rank == 0 else None, root=0)

        assert run_world(size, main) == [{"v": 42}] * size

    def test_bcast_nonzero_root(self, size):
        root = size - 1

        def main(comm):
            return comm.bcast("payload" if comm.rank == root else None,
                              root=root)

        assert run_world(size, main) == ["payload"] * size

    def test_reduce_sum(self, size):
        def main(comm):
            return comm.reduce(comm.rank + 1, op=reduceops.SUM, root=0)

        expected = size * (size + 1) // 2
        results = run_world(size, main)
        assert results[0] == expected
        assert all(r is None for r in results[1:])

    def test_allreduce_max(self, size):
        def main(comm):
            return comm.allreduce(comm.rank * 7, op=reduceops.MAX)

        assert run_world(size, main) == [(size - 1) * 7] * size

    def test_gather(self, size):
        def main(comm):
            return comm.gather(chr(ord("a") + comm.rank), root=0)

        results = run_world(size, main)
        assert results[0] == [chr(ord("a") + i) for i in range(size)]

    def test_allgather(self, size):
        def main(comm):
            return comm.allgather(comm.rank ** 2)

        expected = [i ** 2 for i in range(size)]
        assert run_world(size, main) == [expected] * size

    def test_scatter(self, size):
        def main(comm):
            objs = [f"item{i}" for i in range(size)] \
                if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        assert run_world(size, main) == [f"item{i}" for i in range(size)]

    def test_alltoall(self, size):
        def main(comm):
            objs = [(comm.rank, dest) for dest in range(size)]
            return comm.alltoall(objs)

        results = run_world(size, main)
        for rank, got in enumerate(results):
            assert got == [(src, rank) for src in range(size)]

    def test_scan(self, size):
        def main(comm):
            return comm.scan(comm.rank + 1, op=reduceops.SUM)

        assert run_world(size, main) == \
            [sum(range(1, i + 2)) for i in range(size)]

    def test_exscan(self, size):
        def main(comm):
            return comm.exscan(comm.rank + 1, op=reduceops.SUM)

        expected = [None] + [sum(range(1, i + 1)) for i in range(1, size)]
        assert run_world(size, main) == expected


class TestBufferCollectives:
    def test_Bcast(self):
        def main(comm):
            buf = np.arange(8, dtype=np.float64) if comm.rank == 0 \
                else np.zeros(8, dtype=np.float64)
            comm.Bcast(buf, root=0)
            return buf.tolist()

        results = run_world(4, main)
        assert all(r == list(np.arange(8.0)) for r in results)

    def test_Reduce(self):
        def main(comm):
            send = np.full(4, float(comm.rank + 1))
            recv = np.zeros(4) if comm.rank == 0 else None
            comm.Reduce(send, recv, op=reduceops.SUM, root=0)
            return recv.tolist() if comm.rank == 0 else None

        assert run_world(4, main)[0] == [10.0] * 4

    def test_Allreduce_matches_numpy(self):
        def main(comm):
            rng = np.random.default_rng(comm.rank)
            send = rng.normal(size=16)
            recv = np.zeros(16)
            comm.Allreduce(send, recv, op=reduceops.SUM)
            return send, recv

        results = run_world(4, main)
        expected = np.sum([s for s, _ in results], axis=0)
        for _, recv in results:
            np.testing.assert_allclose(recv, expected, rtol=1e-12)

    def test_Allgather(self):
        def main(comm):
            send = np.full(2, float(comm.rank))
            recv = np.zeros(2 * comm.size)
            comm.Allgather(send, recv)
            return recv.tolist()

        expected = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        assert run_world(4, main) == [expected] * 4

    def test_Alltoall(self):
        def main(comm):
            send = np.arange(comm.size, dtype=np.float64) \
                + 100 * comm.rank
            recv = np.zeros(comm.size)
            comm.Alltoall(send, recv)
            return recv.tolist()

        results = run_world(3, main)
        for rank, got in enumerate(results):
            assert got == [100.0 * src + rank for src in range(3)]

    def test_Alltoall_indivisible_rejected(self):
        def main(comm):
            with pytest.raises(MPIErrArg):
                comm.Alltoall(np.zeros(5), np.zeros(5))
            return "ok"

        run_world(3, main)

    def test_Bcast_size_mismatch_rejected(self):
        def main(comm):
            buf = np.zeros(4 if comm.rank == 0 else 6)
            if comm.rank == 0:
                comm.Bcast(buf, root=0)
                return "root ok"
            with pytest.raises(MPIErrArg):
                comm.Bcast(buf, root=0)
            return "caught"

        results = run_world(2, main)
        assert results == ["root ok", "caught"]

    def test_bad_root_rejected(self):
        def main(comm):
            with pytest.raises(MPIErrRank):
                comm.bcast("x", root=5)
            return "ok"

        run_world(2, main)


class TestCollectiveProperties:
    @given(values=st.lists(st.integers(-1000, 1000), min_size=4,
                           max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_equals_python_sum(self, values):
        def main(comm, vals):
            return comm.allreduce(vals[comm.rank], op=reduceops.SUM)

        results = run_world(4, main, args=(values,))
        assert results == [sum(values)] * 4

    @given(st.integers(0, 3), st.binary(min_size=0, max_size=64))
    @settings(max_examples=15, deadline=None)
    def test_bcast_arbitrary_payload(self, root, payload):
        def main(comm):
            return comm.bcast(payload if comm.rank == root else None,
                              root=root)

        assert run_world(4, main) == [payload] * 4

    def test_nonuniform_payload_sizes(self):
        def main(comm):
            return comm.allgather(b"z" * (100 * comm.rank))

        results = run_world(4, main)
        assert results[0] == [b"", b"z" * 100, b"z" * 200, b"z" * 300]

    def test_back_to_back_collectives_do_not_cross_talk(self):
        def main(comm):
            a = comm.allreduce(1, op=reduceops.SUM)
            b = comm.allreduce(comm.rank, op=reduceops.MAX)
            c = comm.allgather(comm.rank)
            comm.barrier()
            return a, b, c

        results = run_world(5, main)
        assert all(r == (5, 4, [0, 1, 2, 3, 4]) for r in results)

    def test_collectives_on_subcommunicator(self):
        def main(comm):
            sub = comm.split(color=comm.rank % 2)
            total = sub.allreduce(comm.rank, op=reduceops.SUM)
            return sub.size, total

        results = run_world(6, main)
        # evens: 0+2+4 = 6; odds: 1+3+5 = 9
        assert results[0] == (3, 6)
        assert results[1] == (3, 9)


class TestInternalHandlesRecycled:
    """A collective's internal requests never reach the caller, so the
    schedule driver hands every one back to the rank's pool: once warm,
    no collective — blocking or nonblocking — constructs a Request."""

    def test_warm_collectives_allocate_no_requests(self):
        def main(comm):
            size = comm.size
            send, recv = np.arange(64.0) + comm.rank, np.empty(64)
            wide = np.empty(64 * size)
            # three ring segments, so the pre-posted list is exercised
            long = np.zeros(3 * 32 * 1024 // 8)
            ops = {
                "barrier": comm.barrier,
                "Allgather": lambda: comm.Allgather(send, wide),
                "Alltoall": lambda: comm.Alltoall(wide, np.empty_like(wide)),
                "Bcast/ring": lambda: comm.Bcast(long, root=1,
                                                 algorithm="ring"),
                "ibarrier": lambda: comm.ibarrier().wait(),
                "ibcast": lambda: comm.ibcast(("v", 1), root=2).wait(),
                "iallreduce": lambda: comm.iallreduce(comm.rank).wait(),
                "iallgather": lambda: comm.iallgather(comm.rank).wait(),
                "igather": lambda: comm.igather(comm.rank, root=3).wait(),
                "iscatter": lambda: comm.iscatter(
                    list(range(size)) if comm.rank == 0 else None).wait(),
            }
            for algorithm in ("reduce_bcast", "recursive_doubling", "ring",
                              "reduce_scatter_allgather"):
                ops[f"Allreduce/{algorithm}"] = (
                    lambda a=algorithm: comm.Allreduce(send, recv,
                                                       algorithm=a))
            pool = comm.proc.request_pool
            grew = {}
            for name, op in ops.items():
                for _ in range(5):
                    op()
                before = pool.n_alloc
                for _ in range(50):
                    op()
                grew[name] = pool.n_alloc - before
            return grew

        for grew in run_world(4, main):
            assert not any(grew.values()), grew


def _run_nodes(nranks, cores_per_node, fn, strategy="flat"):
    """run_world on an explicit node layout under a collective strategy."""
    world = World(nranks, BuildConfig(communicator_name=strategy),
                  topology=Topology(nranks=nranks,
                                    cores_per_node=cores_per_node))
    return world.run(fn, timeout=120.0)


@pytest.mark.parametrize("strategy", ("flat", "hierarchical"))
class TestReductionArguments:
    """What a reduction refuses, it refuses before any message is
    posted: every rank fails locally and nobody hangs (4 ranks on 2
    nodes, so ``hierarchical`` really routes)."""

    def test_mismatched_dtypes_rejected(self, strategy):
        def main(comm):
            f8, i8 = np.full(4, 2.5), np.zeros(4, np.int64)
            wide, f4 = np.zeros(4 * comm.size), np.zeros(8, np.float32)
            comm.Allreduce(f8, np.empty(4))     # splits the subcomms
            calls = {
                "allreduce": lambda: comm.Allreduce(f8, i8),
                "scan": lambda: comm.Scan(f8, i8),
                "reduce_scatter": lambda: comm.Reduce_scatter_block(wide, f4),
            }
            for what, call in calls.items():
                with pytest.raises(MPIErrArg, match="float64.*(int64|float32)"):
                    call()
                assert not i8.any() and not f4.any(), what
            # MPI_REDUCE's recvbuf counts at the root only (the others
            # send and are done): same bytes, another element type.
            recv = np.zeros(8, np.float32)
            if comm.rank == 0:
                with pytest.raises(MPIErrArg, match="float64.*float32"):
                    comm.Reduce(f8, recv, root=0)
            else:
                comm.Reduce(f8, recv, root=0)
            assert not recv.any()
            return "ok"

        assert _run_nodes(4, 2, main, strategy) == ["ok"] * 4

    @pytest.mark.parametrize("op", (reduceops.REPLACE, reduceops.NO_OP))
    def test_rma_only_operators_rejected(self, strategy, op):
        def main(comm):
            send, recv = np.full(4, comm.rank + 1.0), np.zeros(4)
            for call in (lambda: comm.Allreduce(send, recv, op=op),
                         lambda: comm.Reduce(send, recv, op=op),
                         lambda: comm.Scan(send, recv, op=op),
                         lambda: comm.allreduce(comm.rank, op=op)):
                with pytest.raises(MPIErrOp, match=op.name):
                    call()
            assert not recv.any()
            # Nothing was posted: the next collective matches cleanly.
            comm.Allreduce(send, recv)
            return recv[0]

        assert _run_nodes(4, 2, main, strategy) == [10.0] * 4


_ORACLES = {reduceops.SUM: np.add, reduceops.MAX: np.maximum,
            reduceops.LAND: np.logical_and}


def _contribution(rank, count, dtype):
    """Small signed integers with zeros among them (LAND has both
    outcomes, float sums are exact in any order)."""
    return ((np.arange(count) * (rank + 3)) % 5 - 2).astype(dtype)


def _allreduce_matrix(comm, algorithm, aliased, count=37):
    """Every (op, dtype) of the matrix through one call shape; returns
    what differed from the numpy fold (nothing, one hopes)."""
    wrong = []
    for op, fold in _ORACLES.items():
        for dtype in (np.float64, np.int32):
            parts = [_contribution(r, count, dtype)
                     for r in range(comm.size)]
            expect = parts[0]
            for part in parts[1:]:
                expect = fold(expect, part).astype(dtype)
            send = parts[comm.rank].copy()
            recv = send if aliased else np.full(count, 99, dtype)
            comm.Allreduce(send, recv, op, algorithm=algorithm)
            if not np.array_equal(recv, expect) or recv.dtype != dtype:
                wrong.append((op.name, np.dtype(dtype).name, "result"))
            if not aliased and not np.array_equal(send, parts[comm.rank]):
                wrong.append((op.name, np.dtype(dtype).name, "sendbuf"))
    return wrong


@pytest.mark.parametrize("aliased", (True, False),
                         ids=("in_place", "distinct"))
class TestAllreduceInPlaceOracle:
    """Every algorithm reduces into ``recvbuf``: it may be ``sendbuf``
    (what the hierarchical compositions pass their leaders phase), and
    a distinct ``sendbuf`` comes back bit-unchanged."""

    @pytest.mark.parametrize("size", (2, 3, 4, 5, 8))
    @pytest.mark.parametrize("algorithm", (
        "reduce_bcast", "recursive_doubling", "ring",
        "reduce_scatter_allgather"))
    def test_flat_algorithms(self, algorithm, size, aliased):
        out = run_world(size, _allreduce_matrix, args=(algorithm, aliased))
        assert out == [[]] * size

    @pytest.mark.parametrize("nranks,cores", ((4, 2), (6, 4)))
    @pytest.mark.parametrize("strategy", ("hierarchical",
                                          "two_dimensional"))
    def test_strategies_on_two_nodes(self, strategy, nranks, cores,
                                     aliased):
        out = _run_nodes(
            nranks, cores,
            lambda comm: _allreduce_matrix(comm, None, aliased)
            # above the recursive-doubling ceiling: the leaders phase
            # (self-aliased) goes Rabenseifner.
            + _allreduce_matrix(comm, None, aliased, count=20_000),
            strategy)
        assert out == [[]] * nranks


class TestCollPlanCache:
    """Where the plans live, and who gets to use their cached ops."""

    def test_free_drops_the_plans(self):
        def main(comm):
            dup = comm.dup()
            dup.Allreduce(np.ones(4), np.zeros(4))
            held = len(dup._coll_plans)
            dup.free()
            return held, len(dup._coll_plans)

        assert run_world(2, main) == [(1, 0)] * 2

    @pytest.mark.parametrize("build", ("default", "sanitize", "num_vcis",
                                       "fault_plan"))
    def test_every_build_keeps_the_cached_ops(self, build, monkeypatch):
        """Every build sends a collective's internal messages through
        the plan's cached ops, and the seam sees each of them: the
        sanitizer's ``note_send``, the VCI lane tallies and the fault
        layer's ``comm_check`` fire once per internal message."""
        from repro.core.ch4 import CH4Device
        from repro.ft import FaultPlan
        from repro.ft.reliability import RankFaults
        from repro.sanitize.runtime import RankSanitizer
        config = {"default": BuildConfig(),
                  "sanitize": BuildConfig(sanitize=True),
                  "num_vcis": BuildConfig(num_vcis=4),
                  "fault_plan": BuildConfig(fault_plan=FaultPlan())}[build]
        seen = {"isend": [], "irecv": [], "note_send": [], "comm_check": []}
        for cls, name in ((CH4Device, "isend"), (CH4Device, "irecv"),
                          (RankSanitizer, "note_send"),
                          (RankFaults, "comm_check")):
            def counted(self, *args, _name=name, _fn=getattr(cls, name)):
                seen[_name].append(1)
                return _fn(self, *args)
            monkeypatch.setattr(cls, name, counted)

        def main(comm):
            recv = np.zeros(4)
            comm.barrier()
            lanes = sum(v.completion.n_send for v in comm.proc.vcis)
            comm.Allreduce(np.ones(4), recv)
            lanes = sum(v.completion.n_send for v in comm.proc.vcis) - lanes
            (plan,) = (plan for key, plan in comm._coll_plans.items()
                       if key[0] == "allreduce")
            return recv[0], bool(plan._sends and plan._recvs), lanes

        results = run_world(2, main, config)
        assert [r[:2] for r in results] == [(2.0, True)] * 2
        # Every message the device sent or posted — the barrier's and
        # the Allreduce's — against what the seam saw.
        sends, recvs = len(seen["isend"]), len(seen["irecv"])
        assert sends and recvs
        if build == "sanitize":
            assert len(seen["note_send"]) == sends
        if build == "num_vcis":
            assert sum(r[2] for r in results) == 2   # one send per rank
        if build == "fault_plan":
            assert len(seen["comm_check"]) == sends + recvs

    def test_nonblocking_collectives_compile_no_plan(self):
        def main(comm):
            reqs = [comm.iallreduce(comm.rank), comm.ibarrier()]
            for req in reqs:
                req.wait()
            return len(comm._coll_plans)

        assert run_world(3, main) == [0] * 3

    def test_short_block_is_an_error_not_a_partial_fill(self):
        """A block received in place must fill its slice exactly."""
        def main(comm):
            if comm.rank == 0:
                with pytest.raises(MPIErrArg, match="expected 16 bytes"):
                    comm.Gather(np.zeros(2), np.zeros(4), root=0)
            else:
                comm.Gather(np.zeros(1), None, root=0)
            return "ok"

        assert run_world(2, main) == ["ok"] * 2
