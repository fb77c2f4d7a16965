"""World-level robustness: deadlock detection, aborts, reuse, timing."""

import threading
import time

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.runtime.world import World, WorldAborted
from tests.conftest import run_world


class TestDeadlockDetection:
    def test_hung_rank_raises_timeout(self):
        """A receive that can never match must surface as TimeoutError
        with the hung ranks named, not hang the test suite."""
        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=999)   # never sent
            return "done"

        world = World(2, BuildConfig())
        with pytest.raises(TimeoutError, match="mpi-rank-0"):
            world.run(main, timeout=1.0)

    def test_hung_ranks_share_one_deadline(self):
        """Every rank hung: the world gives up after *timeout* in all,
        not *timeout* per rank (two ranks took 2 × timeout)."""
        def main(comm):
            comm.Recv(np.zeros(1), 1 - comm.rank, 0)   # both wait

        world = World(2, BuildConfig())
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="mpi-rank-1"):
            world.run(main, timeout=1.0)
        assert time.monotonic() - start < 1.8

    def test_exception_unblocks_waiting_peer(self):
        """When rank 1 dies, rank 0's blocking recv must abort quickly
        rather than spin forever."""
        def main(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.recv(source=1, tag=0)

        world = World(2, BuildConfig())
        start = time.monotonic()
        with pytest.raises(ValueError, match="exploded"):
            world.run(main, timeout=30.0)
        assert time.monotonic() - start < 10.0

    def test_exception_note_names_rank(self):
        def main(comm):
            if comm.rank == 2:
                raise RuntimeError("boom")
            comm.barrier()

        try:
            run_world(4, main)
        except RuntimeError as exc:
            assert any("rank 2" in note
                       for note in getattr(exc, "__notes__", []))
        else:  # pragma: no cover
            pytest.fail("expected RuntimeError")

    def test_worldaborted_not_masked_as_primary(self):
        """Peers killed by the abort report the real failure, not
        WorldAborted."""
        def main(comm):
            if comm.rank == 0:
                raise KeyError("primary")
            comm.recv(source=0, tag=0)

        with pytest.raises(KeyError):
            run_world(3, main)


class TestWorldLifecycle:
    def test_rerun_continues_clocks_monotonically(self):
        world = World(2, BuildConfig())

        def main(comm):
            comm.barrier()
            return comm.proc.vclock.now

        first = world.run(main)
        second = world.run(main)
        for t0, t1 in zip(first, second):
            assert t1 > t0

    def test_reset_accounting_preserves_clocks(self):
        world = World(2, BuildConfig())
        world.run(lambda comm: comm.barrier())
        t = world.max_vtime()
        world.reset_accounting()
        assert world.total_instructions() == 0
        assert world.max_vtime() == t

    def test_concurrent_worlds_are_isolated(self):
        """Two worlds running simultaneously must not cross-deliver."""
        results = {}

        def drive(name, payload):
            def main(comm):
                if comm.rank == 0:
                    comm.send(payload, dest=1, tag=1)
                    return None
                return comm.recv(source=0, tag=1)

            results[name] = World(2, BuildConfig()).run(main)[1]

        t1 = threading.Thread(target=drive, args=("a", "from-a"))
        t2 = threading.Thread(target=drive, args=("b", "from-b"))
        t1.start()
        t2.start()
        t1.join()
        t2.join()
        assert results == {"a": "from-a", "b": "from-b"}

    def test_invalid_world_sizes(self):
        with pytest.raises(ValueError):
            World(0)
        from repro.fabric.topology import Topology
        with pytest.raises(ValueError):
            World(4, topology=Topology(nranks=2))


class TestVirtualTimeSanity:
    def test_clocks_monotone_within_run(self):
        def main(comm):
            samples = [comm.proc.vclock.now]
            for _ in range(5):
                comm.allreduce(comm.rank)
                samples.append(comm.proc.vclock.now)
            return samples

        for samples in run_world(4, main):
            assert samples == sorted(samples)

    def test_barrier_synchronizes_clocks(self):
        """After a barrier, no rank's clock may precede the latest
        pre-barrier clock (the max-merge property)."""
        def main(comm):
            # Skew the clocks deliberately.
            comm.proc.charge_compute(comm.rank * 1e-6)
            before = comm.proc.vclock.now
            comm.barrier()
            return before, comm.proc.vclock.now

        results = run_world(4, main)
        latest_before = max(b for b, _ in results)
        for _, after in results:
            assert after >= latest_before

    def test_message_never_arrives_before_send(self):
        def main(comm):
            if comm.rank == 0:
                comm.proc.charge_compute(5e-6)   # sender is "late"
                t_send = comm.proc.vclock.now
                comm.send(t_send, dest=1, tag=0)
                return None
            t_send = comm.recv(source=0, tag=0)
            return comm.proc.vclock.now >= t_send

        assert run_world(2, main)[1]
