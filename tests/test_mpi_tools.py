"""MPI_T performance-variable interface and CH4 rendezvous."""

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.errors import MPIErrArg
from repro.fabric.model import OFI_PSM2
from repro.fabric.topology import Topology
from repro.mpi import reduceops
from repro.mpi.collectives import recursive_doubling_steps, run_schedule
from repro.mpi.tools import (PvarClass, PvarSession, pvar_get_info,
                             pvar_get_num, pvar_names)
from repro.runtime.world import World
from tests.conftest import run_world


class TestPvarRegistry:
    def test_enumeration(self):
        assert pvar_get_num() == len(pvar_names())
        assert pvar_get_num() > 20
        assert "unexpected_queue_length" in pvar_names()

    def test_get_info(self):
        info = pvar_get_info("instructions_total")
        assert info.pvar_class is PvarClass.COUNTER
        assert info.description
        with pytest.raises(MPIErrArg):
            pvar_get_info("no_such_pvar")

    def test_every_category_and_subsystem_exposed(self):
        names = set(pvar_names())
        assert "instructions_error_checking" in names
        assert "mandatory_rank_translation" in names
        assert "mandatory_match_bits" in names


class TestPvarSession:
    def test_unexpected_queue_visible(self):
        def main(comm):
            session = PvarSession(comm.proc)
            if comm.rank == 0:
                comm.send("early", dest=1, tag=0)
                comm.barrier()
                return None
            comm.barrier()   # message now waiting, unreceived
            depth = session.read("unexpected_queue_length")
            payload = comm.recv(source=0, tag=0)
            after = session.read("unexpected_queue_length")
            return depth, after, payload

        depth, after, payload = run_world(2, main)[1]
        assert depth == 1.0
        assert after == 0.0
        assert payload == "early"

    def test_delta_attributes_one_call(self):
        """The tools interface reproduces the Table-1 measurement."""
        def main(comm):
            session = PvarSession(comm.proc)
            buf = np.zeros(1, dtype=np.uint8)
            from repro.datatypes.predefined import BYTE
            if comm.rank == 0:
                delta = session.delta(
                    lambda: comm.Isend((buf, 1, BYTE), dest=1,
                                       tag=0).wait())
                return delta
            comm.Recv((buf, 1, BYTE), source=0, tag=0)
            return None

        delta = run_world(2, main)[0]
        assert delta["instructions_total"] == 221
        assert delta["instructions_error_checking"] == 74
        assert delta["mandatory_rank_translation"] == 11
        assert delta["messages_deposited"] == 0   # we were the sender
        assert delta["virtual_time_seconds"] > 0

    def test_match_counters(self):
        def main(comm):
            session = PvarSession(comm.proc)
            if comm.rank == 0:
                comm.send("a", dest=1, tag=0)      # unexpected at 1
                comm.barrier()
                comm.send("b", dest=1, tag=1)      # matched posted at 1
                return None
            comm.barrier()
            comm.recv(source=0, tag=0)
            comm.recv(source=0, tag=1)
            return (session.read("matches_on_unexpected_queue") >= 1,
                    session.read("messages_deposited") >= 2)

        assert run_world(2, main)[1] == (True, True)

    def test_park_counters(self):
        """``request_waits_parked`` counts a wait only when it blocks,
        ``request_wakes_direct`` when the completer woke it."""
        import time

        def main(comm):
            session = PvarSession(comm.proc)
            names = ("request_waits_parked", "request_wakes_direct")
            buf = np.zeros(1, dtype=np.uint8)
            if comm.rank == 0:
                # An eager send is complete before its wait: no park.
                delta = session.delta(lambda: comm.Isend(buf, 1, 0).wait())
                ready = [delta[n] for n in names]
                peer = PvarSession(comm.world.proc(1))
                parked_before = comm.recv(source=1)
                deadline = time.monotonic() + 30.0
                while peer.read(names[0]) == parked_before:
                    assert time.monotonic() < deadline
                    time.sleep(0)       # yield until rank 1 has parked
                comm.Send(buf, 1, 1)
                return ready
            comm.Recv(buf, 0, 0)
            before = [session.read(n) for n in names]
            comm.send(before[0], dest=0)
            comm.Recv(buf, 0, 1)        # sent only once this has parked
            return [session.read(n) - b for n, b in zip(names, before)]

        ready, blocked = run_world(2, main)
        assert ready == [0, 0]
        assert blocked == [1, 1]
        for name in ("request_waits_parked", "request_wakes_direct"):
            assert pvar_get_info(name).pvar_class is PvarClass.COUNTER

    def test_read_all_complete(self):
        def main(comm):
            return PvarSession(comm.proc).read_all()

        snapshot = run_world(1, main)[0]
        assert set(snapshot) == set(pvar_names())


class TestCH4Rendezvous:
    def _sender_time(self, nbytes):
        world = World(2, BuildConfig(fabric="ofi"),
                      topology=Topology(nranks=2, cores_per_node=1))

        def main(comm):
            data = np.zeros(nbytes, dtype=np.uint8)
            from repro.datatypes.predefined import BYTE
            if comm.rank == 0:
                t0 = comm.proc.vclock.now
                comm.Isend((data, nbytes, BYTE), dest=1, tag=0).wait()
                dev = comm.proc.device
                return (comm.proc.vclock.now - t0, dev.n_eager,
                        dev.n_rendezvous)
            comm.Recv((np.zeros(nbytes, dtype=np.uint8), nbytes, BYTE),
                      source=0, tag=0)
            return None

        return world.run(main)[0]

    def test_protocol_switch_at_threshold(self):
        threshold = OFI_PSM2.rendezvous_threshold
        _, eager, rndv = self._sender_time(threshold)
        assert (eager, rndv) == (1, 0)
        _, eager, rndv = self._sender_time(threshold + 1)
        assert (eager, rndv) == (0, 1)

    def test_rendezvous_adds_round_trip(self):
        threshold = OFI_PSM2.rendezvous_threshold
        t_eager, _, _ = self._sender_time(threshold)
        t_rndv, _, _ = self._sender_time(threshold + 1)
        assert t_rndv - t_eager >= 1.8 * OFI_PSM2.latency_s

    def test_small_messages_unaffected(self):
        """The 1-byte microbenchmark path must stay rendezvous-free —
        the calibrated Figure 2/6 numbers depend on it."""
        from repro.perf.msgrate import measure_instructions
        assert measure_instructions(BuildConfig.default(), "isend") == 221


class TestRecursiveDoubling:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_any_rank_count(self, size):
        def main(comm):
            def combine(a, b):
                return bytes([(x + y) % 256 for x, y in zip(a, b)])

            return run_schedule(comm, recursive_doubling_steps(
                comm, bytes([comm.rank + 1, 0]), combine))

        expected = bytes([size * (size + 1) // 2 % 256, 0])
        assert run_world(size, main) == [expected] * size

    def test_buffer_variant_matches_reference(self):
        def main(comm):
            rng = np.random.default_rng(comm.rank)
            send = rng.normal(size=16)
            rd = np.zeros(16)
            rb = np.zeros(16)
            comm.Allreduce(send, rd, op=reduceops.SUM,
                           algorithm="recursive_doubling")
            comm.Allreduce(send, rb, op=reduceops.SUM,
                           algorithm="reduce_bcast")
            np.testing.assert_allclose(rd, rb, rtol=1e-12)
            return True

        assert all(run_world(6, main))

    def test_unknown_algorithm_rejected(self):
        def main(comm):
            with pytest.raises(MPIErrArg):
                comm.Allreduce(np.zeros(2), np.zeros(2),
                               algorithm="quantum")
            return "ok"

        run_world(1, main)

    def test_large_payload_uses_reduce_bcast_path(self):
        """Default selection: > 64 KiB goes through reduce+bcast (we
        verify via result correctness at a size over the threshold)."""
        def main(comm):
            send = np.full(10_000, float(comm.rank))   # 80 KB
            recv = np.zeros(10_000)
            comm.Allreduce(send, recv, op=reduceops.SUM)
            return recv[0], recv[-1]

        results = run_world(3, main)
        assert all(r == (3.0, 3.0) for r in results)
