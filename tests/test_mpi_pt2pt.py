"""Point-to-point semantics through the full MPI layer."""

import numpy as np
import pytest

from repro.consts import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB
from repro.core.config import BuildConfig
from repro.datatypes import vector
from repro.datatypes.predefined import BYTE, DOUBLE
from repro.errors import (MPIErrBuffer, MPIErrCount, MPIErrDatatype,
                          MPIErrRank, MPIErrTag, MPIErrTruncate)
from tests.conftest import run_world


class TestObjectAPI:
    def test_send_recv_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"k": [1, 2, 3]}, dest=1, tag=5)
                return None
            return comm.recv(source=0, tag=5)

        assert run_world(2, main)[1] == {"k": [1, 2, 3]}

    def test_any_source_any_tag(self):
        def main(comm):
            if comm.rank == 0:
                got = {comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                       for _ in range(comm.size - 1)}
                return got
            comm.send(comm.rank * 10, dest=0, tag=comm.rank)
            return None

        assert run_world(4, main)[0] == {10, 20, 30}

    def test_non_overtaking_order(self):
        """Messages from one sender with the same envelope arrive in
        program order (MPI non-overtaking guarantee)."""
        def main(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, dest=1, tag=3)
                return None
            return [comm.recv(source=0, tag=3) for _ in range(20)]

        assert run_world(2, main)[1] == list(range(20))

    def test_tag_selectivity(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert run_world(2, main)[1] == ("a", "b")

    def test_sendrecv(self):
        def main(comm):
            partner = (comm.rank + 1) % comm.size
            source = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=partner, source=source,
                                 sendtag=1, recvtag=1)

        results = run_world(4, main)
        assert results == [3, 0, 1, 2]

    def test_ssend_completes_on_match(self):
        def main(comm):
            if comm.rank == 0:
                comm.ssend("sync", dest=1, tag=1)
                return "sender done"
            return comm.recv(source=0, tag=1)

        assert run_world(2, main) == ["sender done", "sync"]

    def test_send_to_proc_null_is_discarded(self):
        def main(comm):
            comm.send("void", dest=PROC_NULL, tag=0)
            return comm.recv(source=PROC_NULL, tag=0)

        assert run_world(2, main) == [None, None]

    def test_send_to_self(self):
        def main(comm):
            comm.send("me", dest=comm.rank, tag=9)
            return comm.recv(source=comm.rank, tag=9)

        assert run_world(2, main) == ["me", "me"]


class TestBufferAPI:
    def test_isend_irecv_numpy(self):
        def main(comm):
            if comm.rank == 0:
                data = np.arange(16, dtype=np.float64)
                comm.Isend(data, dest=1, tag=0).wait()
                return None
            buf = np.zeros(16, dtype=np.float64)
            status = comm.Recv(buf, source=0, tag=0)
            return buf.sum(), status.get_count(DOUBLE), status.source

        assert run_world(2, main)[1] == (120.0, 16, 0)

    def test_triple_form_with_derived_type(self):
        def main(comm):
            dt = vector(count=2, blocklength=2, stride=4,
                        base=DOUBLE).commit()
            if comm.rank == 0:
                src = np.arange(12, dtype=np.float64)
                comm.Send((src, 1, dt), dest=1, tag=0)
                return None
            dst = np.zeros(12, dtype=np.float64)
            comm.Recv((dst, 1, dt), source=0, tag=0)
            return dst.tolist()

        out = run_world(2, main)[1]
        assert out[0:2] == [0.0, 1.0]
        assert out[4:6] == [4.0, 5.0]
        assert out[2:4] == [0.0, 0.0]   # gap untouched

    @pytest.mark.parametrize("form", [
        "ndarray", "ndarray-2d", "ndarray-big-endian", "bytes",
        "bytearray", "memoryview", "triple-class2", "triple-class3",
        "pair-class3"])
    def test_every_contiguous_buffer_form(self, form):
        """Each accepted spelling of a contiguous buffer moves the same
        bytes, reports the same status and charges what its datatype
        usage class charges (Class 3 keeps its redundant checks under
        MPI-only inlining; Classes 2 and 3 charge alike without ipo)."""
        from repro.datatypes.usage import compile_time, runtime_constant
        values = np.arange(8, dtype=np.float64) - 3.5
        forms = {
            "ndarray": lambda a: a,
            "ndarray-2d": lambda a: a.reshape(2, 4),
            "ndarray-big-endian": lambda a: a.astype(">f8"),
            "bytes": lambda a: (a.tobytes(), 8, DOUBLE),
            "bytearray": lambda a: (bytearray(a.tobytes()), 8, DOUBLE),
            "memoryview": lambda a: (memoryview(bytearray(a.tobytes())),
                                     8, DOUBLE),
            "triple-class2": lambda a: (a, 8, compile_time(DOUBLE)),
            "triple-class3": lambda a: (a, 8, runtime_constant(DOUBLE)),
            "pair-class3": lambda a: (a, runtime_constant(DOUBLE)),
        }

        def main(comm):
            proc = comm.proc
            if comm.rank == 0:
                arg = forms[form](values.copy())
                comm.Send(values, 1, tag=9)              # warm, as ndarray
                before = proc.counter.total
                comm.Send(arg, 1, tag=0)
                return proc.counter.total - before
            comm.Recv(np.zeros(8), 0, tag=9)
            if form in ("bytes", "ndarray-big-endian"):
                arg = forms["bytearray"](np.zeros(8))    # writable twin
            else:
                arg = forms[form](np.zeros(8))
            before = proc.counter.total
            status = comm.Recv(arg, 0, tag=0)
            buf = arg[0] if isinstance(arg, tuple) else arg
            return (bytes(memoryview(buf).cast("B")), status.source,
                    status.tag, status.count_bytes,
                    proc.counter.total - before)

        sent, got = run_world(2, main)
        want = values.astype(">f8") if form == "ndarray-big-endian" \
            else values
        assert got == (want.tobytes(), 0, 0, 64, 221)
        assert sent == 221

    def test_truncation_error_on_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(8, dtype=np.float64), dest=1, tag=0)
                return None
            buf = np.zeros(2, dtype=np.float64)
            with pytest.raises(MPIErrTruncate):
                comm.Recv(buf, source=0, tag=0)
            return "caught"

        assert run_world(2, main)[1] == "caught"

    def test_short_recv_count(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.ones(2, dtype=np.float64), dest=1, tag=0)
                return None
            buf = np.zeros(8, dtype=np.float64)
            status = comm.Recv(buf, source=0, tag=0)
            return status.get_count(DOUBLE)

        assert run_world(2, main)[1] == 2

    def test_probe_then_sized_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(5, dtype=np.float64), dest=1, tag=4)
                return None
            status = comm.probe(source=0, tag=4)
            n = status.get_count(DOUBLE)
            buf = np.zeros(n, dtype=np.float64)
            comm.Recv(buf, source=status.source, tag=status.tag)
            return buf.tolist()

        assert run_world(2, main)[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_iprobe(self):
        def main(comm):
            if comm.rank == 0:
                assert comm.iprobe(source=1) is None or True
                comm.send("x", dest=1, tag=2)
                return None
            while comm.iprobe(source=0, tag=2) is None:
                pass
            return comm.recv(source=0, tag=2)

        assert run_world(2, main)[1] == "x"


class TestValidation:
    """Error checking runs only in error-checking builds (Table 1)."""

    def test_bad_rank_rejected(self):
        def main(comm):
            if comm.rank == 0:
                with pytest.raises(MPIErrRank):
                    comm.send("x", dest=99, tag=0)
            return "ok"

        assert run_world(2, main)[0] == "ok"

    def test_bad_tag_rejected(self):
        def main(comm):
            if comm.rank == 0:
                with pytest.raises(MPIErrTag):
                    comm.send("x", dest=1, tag=TAG_UB + 1)
                with pytest.raises(MPIErrTag):
                    comm.send("x", dest=1, tag=-5)
            return "ok"

        run_world(2, main)

    def test_negative_count_rejected(self):
        def main(comm):
            if comm.rank == 0:
                with pytest.raises(MPIErrCount):
                    comm.Isend((np.zeros(1), -1, DOUBLE), dest=1, tag=0)
            return "ok"

        run_world(2, main)

    def test_uncommitted_datatype_rejected(self):
        def main(comm):
            dt = vector(2, 1, 2, DOUBLE)   # never committed
            if comm.rank == 0:
                with pytest.raises(MPIErrDatatype):
                    comm.Isend((np.zeros(8), 1, dt), dest=1, tag=0)
            return "ok"

        run_world(2, main)

    def test_no_error_build_skips_validation(self):
        """Without error checking, an in-range-but-wrong call is the
        user's problem — the classic no-err build trade-off.  A bad
        tag sails through the MPI layer (and still works, since our
        matching accepts any integer tag)."""
        def main(comm):
            if comm.rank == 0:
                comm.send("x", dest=1, tag=TAG_UB + 5)
                return None
            return comm.recv(source=0, tag=TAG_UB + 5)

        cfg = BuildConfig.no_errors()
        assert run_world(2, main, cfg)[1] == "x"

    def test_bad_buffer_tuple_rejected(self):
        def main(comm):
            with pytest.raises(MPIErrBuffer):
                comm.Isend("not a buffer", dest=0, tag=0)
            return "ok"

        run_world(1, main)


class TestSendrecvFailedSend:
    """A sendrecv whose send half fails takes its receive back: nothing
    stays posted, the handle returns to the pool, and a later message
    with the receive's envelope is not scattered into its buffer."""

    @pytest.mark.parametrize("api", ["Sendrecv", "sendrecv"])
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_receive_is_withdrawn(self, api, sanitize):
        def main(comm):
            proc, pool = comm.proc, comm.proc.request_pool
            if comm.rank == 1:
                comm.barrier()
                comm.Send(np.full(4, 7.0), 0, tag=5)
                return None
            warm = comm.Irecv(np.zeros(1), PROC_NULL)   # a handle to reuse
            warm.wait()
            pool.release(warm)
            free_before, alloc_before = len(pool._free), pool.n_alloc
            charged_before = proc.counter.total
            recvbuf = np.full(4, -1.0)
            with pytest.raises(MPIErrRank) as info:
                if api == "Sendrecv":
                    comm.Sendrecv(np.zeros(4), 7, recvbuf, 1, 0, 5)
                else:
                    comm.sendrecv("x", 7, 1, 0, 5)
            assert info.value.op == "MPI_Isend" and info.value.rank == 0
            assert proc.engine.pending_counts() == (0, 0)
            assert len(pool._free) == free_before
            assert pool.n_alloc == alloc_before
            # Irecv in full (221) + the send's entry and four checks.
            assert proc.counter.total - charged_before == 221 + 103
            comm.barrier()
            later = np.zeros(4)
            status = comm.Recv(later, 1, 5)
            assert status.count_bytes == 32 and later.tolist() == [7.0] * 4
            assert recvbuf.tolist() == [-1.0] * 4
            return "ok"

        cfg = BuildConfig(sanitize=sanitize)
        assert run_world(2, main, cfg)[0] == "ok"

    def test_success_path_charges_are_unchanged(self):
        """Irecv + Isend, nothing more: 2 x 221 on the default build."""
        def main(comm):
            peer = 1 - comm.rank
            comm.Sendrecv(np.zeros(1), peer, np.zeros(1), peer)   # warm
            before = comm.proc.counter.total
            comm.Sendrecv(np.zeros(1), peer, np.zeros(1), peer)
            return comm.proc.counter.total - before

        assert run_world(2, main) == [442, 442]


class TestWorldMechanics:
    def test_exception_aborts_world(self):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("deliberate")
            # Rank 1 blocks forever; the abort must unwedge it.
            comm.recv(source=0, tag=0)

        with pytest.raises(RuntimeError, match="deliberate"):
            run_world(2, main)

    def test_results_in_rank_order(self):
        assert run_world(4, lambda comm: comm.rank ** 2) == [0, 1, 4, 9]

    def test_world_reusable(self):
        from repro.runtime.world import World
        world = World(2)
        first = world.run(lambda comm: comm.rank)
        second = world.run(lambda comm: comm.rank + 10)
        assert first == [0, 1]
        assert second == [10, 11]

    def test_instruction_counts_accumulate_per_rank(self):
        from repro.runtime.world import World
        world = World(2)

        def main(comm):
            if comm.rank == 0:
                comm.send(b"x", dest=1, tag=0)
            else:
                comm.recv(source=0, tag=0)

        world.run(main)
        assert world.total_instructions() == 442   # 221 send + 221 recv
        world.reset_accounting()
        assert world.total_instructions() == 0
