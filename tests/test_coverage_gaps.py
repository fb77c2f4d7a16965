"""Targeted tests for corners not covered elsewhere."""

import numpy as np
import pytest

from repro.consts import (ANY_SOURCE, ANY_TAG, PROC_NULL,
                          is_wildcard_source, is_wildcard_tag)
from repro.core import extensions as ext
from repro.core.config import BuildConfig
from repro.errors import MPIErrArg
from repro.mpi.rma import Window
from tests.conftest import run_world


class TestConstsHelpers:
    def test_wildcards(self):
        assert is_wildcard_source(ANY_SOURCE)
        assert not is_wildcard_source(0)
        assert not is_wildcard_source(PROC_NULL)
        assert is_wildcard_tag(ANY_TAG)
        assert not is_wildcard_tag(0)


class TestRMAGlobalRank:
    def test_put_with_global_rank_flag(self):
        """§3.1 applied to RMA: target addressed by world rank."""
        def main(comm):
            sub = comm.split(color=0, key=-comm.rank)   # reversed
            mem = np.zeros(2, dtype=np.float64)
            win = Window.create(sub, mem, disp_unit=8)
            win.fence()
            # sub rank 0 is world rank (size-1); address it globally.
            target_world = sub.world_rank_of(0)
            if sub.rank == 1:
                win.put(np.array([4.5]), target_rank=target_world,
                        target_disp=0, flags=ext.GLOBAL_RANK)
            win.fence()
            return comm.rank, mem[0]

        results = dict(run_world(3, main))
        assert results[2] == 4.5          # world rank 2 = sub rank 0
        assert results[0] == 0.0

    def test_put_all_opts_entry_point(self):
        def main(comm):
            mem = np.zeros(2, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            if comm.rank == 0:
                vaddr = win.remote_addr(1, disp=1)
                win.put_all_opts(np.array([6.5]), target_world=1,
                                 vaddr=vaddr)
            win.fence()
            return mem.tolist()

        assert run_world(2, main)[1] == [0.0, 6.5]


class TestGetAccumulate:
    def test_accumulate_to_proc_null_noop(self):
        def main(comm):
            mem = np.ones(1, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            win.accumulate(np.array([5.0]), target_rank=PROC_NULL)
            win.get(np.zeros(1), target_rank=PROC_NULL)
            win.fence()
            return mem[0]

        assert run_world(2, main) == [1.0, 1.0]

    def test_derived_accumulate_target_rejected(self):
        from repro.datatypes import vector
        from repro.datatypes.predefined import DOUBLE
        from repro.errors import MPIErrDatatype

        def main(comm):
            mem = np.zeros(8, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            dt = vector(2, 1, 2, DOUBLE).commit()
            with pytest.raises(MPIErrDatatype):
                win.accumulate((np.ones(2), 2, DOUBLE), target_rank=0,
                               target_disp=0, target=(1, dt))
            win.fence()
            return "ok"

        run_world(2, main)


class TestExtensionMisuse:
    def test_nomatch_message_requires_nomatch_recv(self):
        """A nomatch message never satisfies a normal posted receive —
        the streams are disjoint by construction."""
        def main(comm):
            if comm.rank == 0:
                comm.isend_nomatch(np.ones(1), 1, tag=5).wait()
                comm.Isend(np.full(1, 2.0), 1, tag=5).wait()
                return None
            buf = np.zeros(1)
            comm.Recv(buf, source=0, tag=5)   # gets the NORMAL message
            normal = buf[0]
            comm.recv_nomatch(buf)
            return normal, buf[0]

        assert run_world(2, main)[1] == (2.0, 1.0)

    def test_isend_global_bad_world_rank_unchecked_build(self):
        """Without error checking, an out-of-range world rank surfaces
        as a runtime failure (the no-err build trade-off)."""
        def main(comm):
            with pytest.raises(Exception):
                comm.isend_global(np.zeros(1), 99, tag=0)
            return "ok"

        run_world(2, main, BuildConfig.no_errors())


class TestWaitallNoreqEdge:
    def test_waitall_with_nothing_pending(self):
        def main(comm):
            return comm.waitall_noreq()

        assert run_world(2, main) == [0, 0]

    def test_mixed_noreq_and_requested_sends(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.Isend(np.ones(1), dest=1, tag=0)
                comm.isend_noreq(np.full(1, 2.0), 1, tag=1)
                req.wait()
                done = comm.waitall_noreq()
                return done
            a, b = np.zeros(1), np.zeros(1)
            comm.Recv(a, source=0, tag=0)
            comm.Recv(b, source=0, tag=1)
            return (a[0], b[0])

        results = run_world(2, main)
        assert results[0] == 1
        assert results[1] == (1.0, 2.0)


class TestVersionMetadata:
    def test_version_string(self):
        import repro
        assert repro.__version__.count(".") == 2

    def test_top_level_exports_resolve(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name   # COMM_NULL is None
