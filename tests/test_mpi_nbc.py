"""Nonblocking collectives and neighborhood collectives."""

import numpy as np
import pytest

from repro.consts import PROC_NULL
from repro.errors import MPIErrArg
from repro.mpi import reduceops
from tests.conftest import run_world


class TestIBarrier:
    def test_wait_completes(self):
        def main(comm):
            req = comm.ibarrier()
            req.wait()
            return req.is_complete()

        assert all(run_world(4, main))

    def test_overlap_with_local_work(self):
        def main(comm):
            req = comm.ibarrier()
            work = sum(range(1000))       # overlapped computation
            req.wait()
            return work

        assert run_world(3, main) == [499500] * 3

    def test_test_driven_completion(self):
        """Polling test() must eventually complete the barrier without
        any call to wait()."""
        def main(comm):
            req = comm.ibarrier()
            spins = 0
            while not req.test():
                spins += 1
                if spins > 10_000_000:   # pragma: no cover
                    raise RuntimeError("ibarrier never completed")
            return True

        assert all(run_world(4, main))


class TestIBcast:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_matches_blocking_bcast(self, size):
        def main(comm):
            req = comm.ibcast({"k": 1} if comm.rank == 0 else None,
                              root=0)
            req.wait()
            return req.result

        assert run_world(size, main) == [{"k": 1}] * size

    def test_two_outstanding_ibcasts_do_not_cross(self):
        """Concurrent NBCs on one communicator stay isolated via the
        sequence-numbered tags."""
        def main(comm):
            a = comm.ibcast("first" if comm.rank == 0 else None, root=0)
            b = comm.ibcast("second" if comm.rank == 0 else None, root=0)
            b.wait()
            a.wait()
            return a.result, b.result

        assert run_world(4, main) == [("first", "second")] * 4


class TestIAllreduce:
    @pytest.mark.parametrize("size", [1, 2, 4, 6])
    def test_sum(self, size):
        def main(comm):
            req = comm.iallreduce(comm.rank + 1, op=reduceops.SUM)
            req.wait()
            return req.result

        expected = size * (size + 1) // 2
        assert run_world(size, main) == [expected] * size

    def test_max_with_overlap(self):
        def main(comm):
            req = comm.iallreduce(comm.rank * 5, op=reduceops.MAX)
            local = np.arange(64).sum()     # overlap
            req.wait()
            return req.result + 0 * local

        assert run_world(5, main) == [20] * 5

    def test_matches_blocking_variant(self):
        def main(comm):
            nb = comm.iallreduce(comm.rank ** 2)
            blocking = None
            nb.wait()
            blocking = comm.allreduce(comm.rank ** 2)
            return nb.result == blocking

        assert all(run_world(4, main))


class TestIAllgather:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_blocking(self, size):
        def main(comm):
            req = comm.iallgather(("r", comm.rank))
            req.wait()
            return req.result

        expected = [("r", i) for i in range(size)]
        assert run_world(size, main) == [expected] * size


class TestIGatherIScatter:
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_igather(self, size):
        def main(comm):
            req = comm.igather(("r", comm.rank), root=0)
            req.wait()
            return req.result

        results = run_world(size, main)
        assert results[0] == [("r", i) for i in range(size)]
        assert all(r is None for r in results[1:])

    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_iscatter(self, size):
        def main(comm):
            objs = [f"piece{i}" for i in range(size)] \
                if comm.rank == 0 else None
            req = comm.iscatter(objs, root=0)
            req.wait()
            return req.result

        assert run_world(size, main) == [f"piece{i}"
                                         for i in range(size)]

    def test_iscatter_root_validates(self):
        def main(comm):
            with pytest.raises(MPIErrArg):
                comm.iscatter([1, 2, 3], root=comm.rank)   # wrong count
            with pytest.raises(MPIErrArg):
                comm.iscatter(None, root=comm.rank)
            return "ok"

        run_world(1, main)

    def test_nonzero_root_gather(self):
        def main(comm):
            req = comm.igather(comm.rank * 2, root=2)
            req.wait()
            return req.result

        results = run_world(3, main)
        assert results[2] == [0, 2, 4]
        assert results[0] is None


class TestNeighborCollectives:
    def test_neighbor_allgather_interior_ring(self):
        def main(comm):
            cart = comm.create_cart((comm.size,), (True,))
            return cart.neighbor_allgather(cart.rank)

        results = run_world(4, main)
        # Order: (minus neighbor, plus neighbor) values.
        assert results[1] == [0, 2]
        assert results[0] == [3, 1]

    def test_neighbor_allgather_boundary_none(self):
        def main(comm):
            cart = comm.create_cart((comm.size,), (False,))
            return cart.neighbor_allgather(cart.rank)

        results = run_world(3, main)
        assert results[0] == [None, 1]
        assert results[2] == [1, None]

    def test_neighbor_alltoall_personalized(self):
        def main(comm):
            cart = comm.create_cart((comm.size,), (True,))
            src, dest = cart.shift(0, 1)
            # Send "(me, to_minus)" to the minus neighbor, etc.
            out = cart.neighbor_alltoall(
                [(cart.rank, "minus"), (cart.rank, "plus")])
            return out

        results = run_world(3, main)
        # Rank 1: from minus neighbor 0 we get 0's "plus" message.
        assert results[1] == [(0, "plus"), (2, "minus")]

    def test_neighbor_alltoall_count_checked(self):
        def main(comm):
            cart = comm.create_cart((comm.size,), (True,))
            with pytest.raises(MPIErrArg):
                cart.neighbor_alltoall([1, 2, 3])
            return "ok"

        run_world(2, main)

    def test_2d_neighbor_count(self):
        def main(comm):
            cart = comm.create_cart((2, 2), (True, True))
            got = cart.neighbor_allgather(cart.rank)
            return len(got)

        assert run_world(4, main) == [4] * 4


class TestAriesFabric:
    def test_registered(self):
        from repro.fabric.model import CRAY_ARIES, fabric_by_name
        assert fabric_by_name("aries") is CRAY_ARIES

    def test_runtime_runs_on_aries(self):
        from repro.core.config import BuildConfig

        def main(comm):
            return comm.allreduce(1)

        assert run_world(2, main, BuildConfig(fabric="aries")) == [2, 2]


class TestValidatedAtTheCall:
    """An ``i*`` call validates like its blocking twin, and before a
    handle exists: an illegal root raises from the call (it used to
    post nothing and hang), and under the sanitizer the rejected call
    leaves no open request record for finalize to report (MSD202)."""

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_illegal_arguments_raise_and_leak_nothing(self, sanitize):
        from repro.core.config import BuildConfig
        from repro.errors import MPIErrRank

        def main(comm):
            for call in (lambda: comm.ibcast("x", root=comm.size),
                         lambda: comm.igather(comm.rank, root=-1),
                         lambda: comm.iscatter([0] * comm.size,
                                               root=comm.size)):
                with pytest.raises(MPIErrRank):
                    call()
            with pytest.raises(MPIErrArg):
                # Only a root sees the list: every rank names itself,
                # so all reject (and their tag sequences stay in step).
                comm.iscatter([1], root=comm.rank)
            req = comm.ibcast("after" if comm.rank == 1 else None, root=1)
            return req.wait().result

        assert run_world(3, main, BuildConfig(sanitize=sanitize),
                         timeout=15.0) == ["after"] * 3


def _objs(comm):
    return [("piece", i) for i in range(comm.size)]


#: shared schedule -> (blocking call, nonblocking call), both
#: ``(comm, root) -> result``; unrooted collectives ignore *root*.
_PAIRS = {
    "barrier_steps": (
        lambda c, root: c.barrier(),
        lambda c, root: c.ibarrier().wait().result),
    "bcast_obj_steps": (
        lambda c, root: c.bcast({"from": root} if c.rank == root else None,
                                root=root),
        lambda c, root: c.ibcast({"from": root} if c.rank == root else None,
                                 root=root).wait().result),
    "allreduce_obj_steps": (
        lambda c, root: c.allreduce(c.rank + 1, op=reduceops.MAX),
        lambda c, root: c.iallreduce(c.rank + 1,
                                     op=reduceops.MAX).wait().result),
    "allgather_obj_steps": (
        lambda c, root: c.allgather(("r", c.rank)),
        lambda c, root: c.iallgather(("r", c.rank)).wait().result),
    "gather_obj_steps": (
        lambda c, root: c.gather(("r", c.rank), root=root),
        lambda c, root: c.igather(("r", c.rank), root=root).wait().result),
    "scatter_obj_steps": (
        lambda c, root: c.scatter(_objs(c) if c.rank == root else None,
                                  root=root),
        lambda c, root: c.iscatter(_objs(c) if c.rank == root else None,
                                   root=root).wait().result),
}
_ROOTED = ("bcast_obj_steps", "gather_obj_steps", "scatter_obj_steps")


@pytest.mark.parametrize("name", _PAIRS)
class TestBlockingEqualsNonblocking:
    """One text per collective: ``comm.x`` runs the schedule that
    ``comm.ix`` returns — by construction and by observation."""

    def test_both_entries_run_the_one_schedule(self, name, monkeypatch):
        from repro.mpi import collectives as coll
        real, calls = getattr(coll, name), []

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(coll, name, counting)
        blocking, nonblocking = _PAIRS[name]
        assert run_world(2, lambda c: blocking(c, 0)) \
            == run_world(2, lambda c: nonblocking(c, 0))
        assert len(calls) == 4    # 2 ranks x (blocking + nonblocking)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_same_results_messages_and_charges(self, name, size):
        """For every root: identical results, and per rank the same
        number of messages deposited and instructions charged."""
        roots = range(size) if name in _ROOTED else (0,)

        def main(comm, which):
            results = [_PAIRS[name][which](comm, root) for root in roots]
            # Each rank consumes every message sent to it, so its
            # engine is quiescent here and the totals are exact.
            return (results, comm.proc.engine.n_deposited,
                    comm.proc.counter.total)

        assert run_world(size, main, args=(0,)) \
            == run_world(size, main, args=(1,))
