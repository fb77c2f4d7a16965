"""Section 3 extension semantics and their exact instruction savings."""

import numpy as np
import pytest

from repro.consts import PROC_NULL
from repro.core import extensions as ext
from repro.core.config import BuildConfig
from repro.datatypes.predefined import BYTE, DOUBLE
from repro.errors import MPIErrArg, MPIErrRank
from repro.perf.msgrate import EXTENSION_CHAIN, measure_instructions
from tests.conftest import run_world


class TestExtFlags:
    def test_or_combines(self):
        combined = ext.NOREQ | ext.NOMATCH
        assert combined.noreq and combined.nomatch
        assert not combined.global_rank

    def test_fused_requires_all_pt2pt_flags(self):
        assert ext.ALL_OPTS_PT2PT.fused_pt2pt
        assert not (ext.NOREQ | ext.NOMATCH).fused_pt2pt
        assert ext.ALL_OPTS_RMA.fused_rma
        assert not ext.VIRTUAL_ADDR.fused_rma

    def test_any(self):
        assert not ext.NONE.any
        assert ext.GLOBAL_RANK.any

    def test_with_(self):
        f = ext.ALL_OPTS_PT2PT.with_(noreq=False)
        assert not f.noreq and f.global_rank


class TestGlobalRank:
    def test_functional_roundtrip(self):
        """§3.1: translate on a subcomm, send with world ranks."""
        def main(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reversed order
            buf = np.full(1, float(comm.rank))
            out = np.zeros(1)
            # sub-rank of my neighbor in reversed ordering:
            nbr = (sub.rank + 1) % sub.size
            nbr_world = sub.world_rank_of(nbr)
            req = sub.Irecv(out, source=(sub.rank - 1) % sub.size, tag=0)
            sub.isend_global(buf, nbr_world, tag=0).wait()
            req.wait()
            return out[0]

        results = run_world(3, main)
        # reversed ring: sub ranks (0,1,2) = world (2,1,0)
        assert results == [1.0, 2.0, 0.0]

    def test_world_range_validated(self):
        def main(comm):
            with pytest.raises(MPIErrRank):
                comm.isend_global(np.zeros(1), comm.world_size, tag=0)
            return "ok"

        run_world(2, main)

    def test_saves_ten_instructions(self):
        cfg = BuildConfig.ipo_build()
        base = measure_instructions(cfg, "isend")
        glob = measure_instructions(cfg, "isend", ext.GLOBAL_RANK)
        assert base - glob == 10


class TestNPN:
    def test_rejects_proc_null_in_checked_build(self):
        def main(comm):
            with pytest.raises(MPIErrRank):
                comm.isend_npn(np.zeros(1), PROC_NULL, tag=0)
            return "ok"

        run_world(2, main)

    def test_functional(self):
        def main(comm):
            buf = np.full(2, float(comm.rank))
            out = np.zeros(2)
            if comm.rank == 0:
                comm.isend_npn(buf, 1, tag=3).wait()
                return None
            comm.Recv(out, source=0, tag=3)
            return out.tolist()

        assert run_world(2, main)[1] == [0.0, 0.0]

    def test_saves_three_instructions(self):
        cfg = BuildConfig.ipo_build()
        assert (measure_instructions(cfg, "isend")
                - measure_instructions(cfg, "isend", ext.NO_PROC_NULL)) == 3


class TestNoReq:
    def test_bulk_completion(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.isend_noreq(np.full(1, float(i)), 1, tag=i)
                assert comm.noreq_pending == 10
                done = comm.waitall_noreq()
                assert comm.noreq_pending == 0
                return done
            out = np.zeros(1)
            return [int(comm.Recv(out, source=0, tag=i).count_bytes)
                    for i in range(10)]

        results = run_world(2, main)
        assert results[0] == 10
        assert results[1] == [8] * 10

    def test_noreq_returns_none(self):
        def main(comm):
            if comm.rank == 0:
                assert comm.isend_noreq(np.zeros(1), 1, tag=0) is None
                comm.waitall_noreq()
                return None
            comm.Recv(np.zeros(1), source=0, tag=0)
            return None

        run_world(2, main)

    def test_ssend_noreq_combination_rejected(self):
        from repro.core.ops import SendOp
        from repro.mpi.pt2pt import BYTE_REF

        def main(comm):
            op = SendOp(buf=np.zeros(1, np.uint8), count=1, dtref=BYTE_REF,
                        dest=0, tag=0, comm=comm, flags=ext.NOREQ,
                        sync=True)
            with pytest.raises(MPIErrArg):
                comm.proc.device.isend(op)
            return "ok"

        run_world(1, main)

    def test_saves_ten_instructions(self):
        cfg = BuildConfig.ipo_build()
        assert (measure_instructions(cfg, "isend")
                - measure_instructions(cfg, "isend", ext.NOREQ)) == 10


class TestNoMatch:
    def test_arrival_order_matching(self):
        """§3.6: messages from different sources and tags match a
        nomatch receive strictly in arrival order."""
        def main(comm):
            if comm.rank == 0:
                got = []
                buf = np.zeros(1)
                for _ in range(2):
                    status = comm.recv_nomatch(buf)
                    got.append((status.source, buf[0]))
                # Warm: the second call reused the first one's handle.
                assert comm.proc.request_pool.n_alloc == 1
                return sorted(got)
            comm.isend_nomatch(np.full(1, float(comm.rank)), 0,
                               tag=comm.rank * 11).wait()
            return None

        assert run_world(3, main)[0] == [(1, 1.0), (2, 2.0)]

    def test_retains_communicator_isolation(self):
        def main(comm):
            dup = comm.dup()
            if comm.rank == 0:
                comm.isend_nomatch(np.full(1, 1.0), 1, tag=0).wait()
                dup.isend_nomatch(np.full(1, 2.0), 1, tag=0).wait()
                return None
            buf = np.zeros(1)
            dup.recv_nomatch(buf)
            first = buf[0]
            comm.recv_nomatch(buf)
            return (first, buf[0])

        assert run_world(2, main)[1] == (2.0, 1.0)

    def test_nomatch_invisible_to_normal_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.isend_nomatch(np.full(1, 5.0), 1, tag=7).wait()
                comm.Isend(np.full(1, 6.0), 1, tag=7).wait()
                return None
            buf = np.zeros(1)
            comm.Recv(buf, source=0, tag=7)
            normal = buf[0]
            comm.recv_nomatch(buf)
            return (normal, buf[0])

        assert run_world(2, main)[1] == (6.0, 5.0)

    def test_saves_five_instructions(self):
        cfg = BuildConfig.ipo_build()
        assert (measure_instructions(cfg, "isend")
                - measure_instructions(cfg, "isend", ext.NOMATCH)) == 5


class TestStaticComm:
    def test_saves_eight_instructions(self):
        cfg = BuildConfig.ipo_build()
        assert (measure_instructions(cfg, "isend")
                - measure_instructions(cfg, "isend", ext.STATIC_COMM)) == 8


class TestAllOpts:
    def test_sixteen_instructions(self):
        """§3.7: the combined path costs exactly 16 instructions."""
        cfg = BuildConfig.ipo_build()
        assert measure_instructions(cfg, "isend", ext.ALL_OPTS_PT2PT) == 16

    def test_put_all_opts_fourteen(self):
        cfg = BuildConfig.ipo_build()
        assert measure_instructions(cfg, "put", ext.ALL_OPTS_RMA) == 14

    def test_functional_stream(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.isend_all_opts(np.full(1, float(i)), 1, tag=0)
                comm.waitall_noreq()
                return None
            buf = np.zeros(1)
            return [comm.irecv_all_opts(buf).wait() and float(buf[0])
                    for _ in range(5)]

        assert run_world(2, main)[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_figure6_cumulative_chain(self):
        """The Figure 6 chain: 59 -> 49 -> 44 -> 25 -> 16."""
        cfg = BuildConfig.ipo_build()
        counts = [measure_instructions(cfg, "isend", flags)
                  for _, flags in EXTENSION_CHAIN]
        assert counts == [59, 49, 44, 25, 16]
