"""Persistent requests and the explicit pack API."""

import numpy as np
import pytest

from repro.core.config import BuildConfig
from repro.datatypes import vector
from repro.datatypes.predefined import DOUBLE, INT
from repro.errors import (MPIErrArg, MPIErrBuffer, MPIErrDatatype, MPIErrRank,
                          MPIErrRequest)
from repro.mpi.packapi import mpi_pack, mpi_unpack, pack_size
from repro.mpi.persist import startall
from tests.conftest import run_world


class TestPersistent:
    def test_repeated_start_wait(self):
        def main(comm):
            buf = np.zeros(4, dtype=np.float64)
            if comm.rank == 0:
                sreq = comm.Send_init(buf, dest=1, tag=0)
                for i in range(5):
                    buf[:] = float(i)
                    sreq.start()
                    sreq.wait()
                return None
            out = np.zeros(4, dtype=np.float64)
            rreq = comm.Recv_init(out, source=0, tag=0)
            got = []
            for _ in range(5):
                rreq.start()
                rreq.wait()
                got.append(out[0])
            return got

        assert run_world(2, main)[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_ch4_start_is_much_cheaper_than_isend(self):
        """The amortization: a started persistent send costs only
        request reuse + descriptor (19 instructions on the ipo build)
        vs 59 for a fresh isend."""
        def main(comm):
            buf = np.zeros(1, dtype=np.float64)
            if comm.rank == 0:
                sreq = comm.Send_init(buf, dest=1, tag=0)
                with comm.proc.tracer.call("start"):
                    sreq.start()
                sreq.wait()
                return comm.proc.tracer.last("start").total
            out = np.zeros(1, dtype=np.float64)
            comm.Recv(out, source=0, tag=0)
            return None

        cost = run_world(2, main, BuildConfig.ipo_build())[0]
        assert cost == 19   # noreq counter (3) + descriptor (16)

    def test_ch3_has_no_fast_persistent_path(self):
        def main(comm):
            buf = np.zeros(1, dtype=np.float64)
            if comm.rank == 0:
                sreq = comm.Send_init(buf, dest=1, tag=0)
                with comm.proc.tracer.call("start"):
                    sreq.start()
                sreq.wait()
                return comm.proc.tracer.last("start").total
            comm.Recv(np.zeros(1, dtype=np.float64), source=0, tag=0)
            return None

        cost = run_world(2, main, BuildConfig.original())[0]
        assert cost >= 150   # full CH3 device path re-runs

    def test_start_while_active_rejected(self):
        def main(comm):
            out = np.zeros(1, dtype=np.float64)
            rreq = comm.Recv_init(out, source=0, tag=0)
            rreq.start()
            with pytest.raises(MPIErrRequest):
                rreq.start()
            if comm.rank == 0:
                comm.Isend(np.zeros(1, dtype=np.float64), dest=comm.rank,
                           tag=0).wait()
            else:
                comm.proc.engine.cancel_posted(rreq.active)
            return "ok"

        run_world(1, main)

    def test_wait_without_start_rejected(self):
        def main(comm):
            sreq = comm.Send_init(np.zeros(1), dest=0, tag=0)
            with pytest.raises(MPIErrRequest):
                sreq.wait()
            sreq.free()
            with pytest.raises(MPIErrRequest):
                sreq.start()
            return "ok"

        run_world(1, main)

    def test_init_validates_arguments(self):
        def main(comm):
            with pytest.raises(MPIErrRank):
                comm.Send_init(np.zeros(1), dest=42, tag=0)
            return "ok"

        run_world(2, main)

    def test_startall(self):
        def main(comm):
            if comm.rank == 0:
                reqs = [comm.Send_init(np.full(1, float(i)), dest=1,
                                       tag=i) for i in range(3)]
                for active in startall(reqs):
                    active.wait()
                return None
            out = np.zeros(1)
            vals = []
            for i in range(3):
                comm.Recv(out, source=0, tag=i)
                vals.append(out[0])
            return vals

        assert run_world(2, main)[1] == [0.0, 1.0, 2.0]

    def test_persistent_to_proc_null(self):
        from repro.consts import PROC_NULL

        def main(comm):
            sreq = comm.Send_init(np.zeros(1), dest=PROC_NULL, tag=0)
            sreq.start()
            sreq.wait()
            rreq = comm.Recv_init(np.zeros(1), source=PROC_NULL, tag=0)
            rreq.start()
            rreq.wait()
            return rreq.active.source

        assert run_world(1, main)[0] == PROC_NULL


class TestPersistentSharesTheSendBody:
    """A persistent send is an MPI_ISEND whose call site was resolved
    at init: ``start()`` charges its own calibrated plan, then runs the
    device's one send body — protocol switch, VCI lane, fault wrapping
    — like any other send of that size (Liu et al.: eager vs
    rendezvous is a property of the message, not of the API)."""

    @staticmethod
    def _one_send(nbytes, persistent):
        """Rank 0 sends *nbytes* once; returns the sender's protocol
        counters and how far its clock moved across call and wait."""
        def main(comm):
            buf = np.zeros(nbytes, dtype=np.uint8)
            if comm.rank == 1:
                comm.Recv(buf, source=0, tag=0)
                return None
            proc, device = comm.proc, comm.proc.device
            latency = device._transport_for(1).spec.latency_s
            sreq = comm.Send_init(buf, dest=1, tag=0) if persistent else None
            req = sreq.start() if persistent else comm.Isend(buf, 1, 0)
            issued = proc.vclock.now
            req.wait()
            return (device.n_eager, device.n_rendezvous,
                    proc.vclock.now == issued + 2.0 * latency)

        return run_world(2, main)[0]

    def test_above_the_eager_threshold_is_rendezvous(self):
        assert self._one_send(1 << 20, persistent=False) == (0, 1, True)
        # Beyond the start / Isend charge difference, the same clock:
        # the buffer is free once the CTS is back, 2 x latency on.
        assert self._one_send(1 << 20, persistent=True) == (0, 1, True)

    def test_below_the_eager_threshold_is_eager(self):
        assert self._one_send(8, persistent=False) == (1, 0, False)
        assert self._one_send(8, persistent=True) == (1, 0, False)

    def test_start_on_a_revoked_communicator_raises_what_isend_raises(self):
        from repro.core import extensions as ext
        from repro.errors import MPIErrRevoked
        from repro.ft import ERRORS_RETURN, FaultPlan

        def main(comm):
            comm.set_errhandler(ERRORS_RETURN)
            buf = np.zeros(1, dtype=np.uint8)
            sreq = comm.Send_init(buf, dest=1 - comm.rank, tag=0)
            if comm.rank == 0:
                ext.MPIX_Comm_revoke(comm)
            raised = []
            for call in (lambda: comm.Isend(buf, 1 - comm.rank, 0),
                         sreq.start):
                try:
                    call()
                    raised.append(None)
                except MPIErrRevoked as exc:
                    raised.append(exc.error_class)
            return raised

        results = run_world(2, main, BuildConfig(fault_plan=FaultPlan()))
        assert results == [["MPI_ERR_REVOKED"] * 2] * 2

    def test_start_is_noted_on_its_vci_lane(self):
        def main(comm):
            buf = np.zeros(1, dtype=np.uint8)
            if comm.rank == 1:
                comm.Recv(buf, source=0, tag=5)
                return None
            vci = comm.proc.vci_for(comm.ctx, 1, 5)
            before = vci.completion.n_send, vci.n_injected
            sreq = comm.Send_init(buf, dest=1, tag=5)
            sreq.start()
            sreq.wait()
            return (vci.completion.n_send - before[0],
                    vci.n_injected - before[1])

        assert run_world(2, main, BuildConfig(num_vcis=4))[0] == (1, 1)


class TestPackAPI:
    def test_pack_size(self):
        assert pack_size(4, DOUBLE) == 32
        dt = vector(2, 1, 3, DOUBLE).commit()
        assert pack_size(2, dt) == 32

    def test_incremental_pack_unpack(self):
        ints = np.array([1, 2, 3], dtype=np.int32)
        doubles = np.array([1.5, 2.5], dtype=np.float64)
        buf = bytearray(64)
        pos = mpi_pack(ints, 3, INT, buf, 0)
        pos = mpi_pack(doubles, 2, DOUBLE, buf, pos)
        assert pos == 12 + 16

        out_i = np.zeros(3, dtype=np.int32)
        out_d = np.zeros(2, dtype=np.float64)
        pos2 = mpi_unpack(buf, 0, out_i, 3, INT)
        pos2 = mpi_unpack(buf, pos2, out_d, 2, DOUBLE)
        assert pos2 == pos
        assert out_i.tolist() == [1, 2, 3]
        assert out_d.tolist() == [1.5, 2.5]

    def test_pack_overflow_rejected(self):
        with pytest.raises(MPIErrBuffer):
            mpi_pack(np.zeros(4, dtype=np.float64), 4, DOUBLE,
                     bytearray(16), 0)

    def test_unpack_overrun_rejected(self):
        with pytest.raises(MPIErrBuffer):
            mpi_unpack(bytearray(8), 0, np.zeros(4), 4, DOUBLE)

    def test_negative_position_rejected(self):
        with pytest.raises(MPIErrArg):
            mpi_pack(np.zeros(1), 1, DOUBLE, bytearray(8), -1)
        with pytest.raises(MPIErrArg):
            mpi_unpack(bytearray(8), -1, np.zeros(1), 1, DOUBLE)

    def test_uncommitted_and_freed_types_rejected(self):
        """Same typed error, same text, as pt2pt and RMA give."""
        arr = np.arange(8, dtype=np.float64)
        never = vector(2, 1, 3, DOUBLE)
        freed = vector(2, 1, 3, DOUBLE).commit()
        packed = bytearray(16)
        assert mpi_pack(arr, 1, freed, packed, 0) == 16
        freed.free()
        assert freed.plan is None
        for dt in (never, freed):
            with pytest.raises(MPIErrDatatype,
                               match=r"hvector.* used before commit"):
                mpi_pack(arr, 1, dt, bytearray(16), 0)
            with pytest.raises(MPIErrDatatype,
                               match=r"hvector.* used before commit"):
                mpi_unpack(packed, 0, arr, 1, dt)
            assert dt.plan is None      # nothing compiled on the way out

    def test_packed_bytes_travel_as_bytes(self):
        """The classic MPI_PACK use: heterogeneous payload as BYTE."""
        def main(comm):
            from repro.datatypes.predefined import BYTE
            if comm.rank == 0:
                buf = bytearray(24)
                pos = mpi_pack(np.array([7], dtype=np.int32), 1, INT,
                               buf, 0)
                pos = mpi_pack(np.array([3.25]), 1, DOUBLE, buf, pos)
                comm.Send((np.frombuffer(buf, np.uint8)[:pos], pos, BYTE),
                          dest=1, tag=0)
                return None
            raw = np.zeros(24, dtype=np.uint8)
            status = comm.Recv((raw, 24, BYTE), source=0, tag=0)
            i = np.zeros(1, dtype=np.int32)
            d = np.zeros(1, dtype=np.float64)
            pos = mpi_unpack(raw, 0, i, 1, INT)
            mpi_unpack(raw, pos, d, 1, DOUBLE)
            return int(i[0]), float(d[0]), status.count_bytes

        assert run_world(2, main)[1] == (7, 3.25, 12)


class TestPSCW:
    def test_post_start_complete_wait(self):
        def main(comm):
            from repro.mpi.rma import Window
            win, mem = Window.allocate(comm, nbytes=8, disp_unit=8)
            view = mem.view(np.float64)
            if comm.rank == 0:
                # Target: expose to rank 1, wait for completion.
                win.post([1])
                win.wait_sync()
                return view[0]
            # Origin: access rank 0's window.
            win.start([0])
            win.put(np.array([2.25]), target_rank=0)
            win.complete()
            return None

        assert run_world(2, main)[0] == 2.25

    def test_pairing_errors(self):
        def main(comm):
            from repro.errors import MPIErrRMASync
            from repro.mpi.rma import Window
            win, _ = Window.allocate(comm, nbytes=8)
            with pytest.raises(MPIErrRMASync):
                win.complete()
            with pytest.raises(MPIErrRMASync):
                win.wait_sync()
            win.fence()
            return "ok"

        run_world(2, main)

    def test_multiple_origins(self):
        def main(comm):
            from repro.mpi.rma import Window
            win, mem = Window.allocate(comm, nbytes=8 * comm.size,
                                       disp_unit=8)
            view = mem.view(np.float64)
            if comm.rank == 0:
                win.post([1, 2])
                win.wait_sync()
                return view.tolist()
            win.start([0])
            win.put(np.array([float(comm.rank)]), target_rank=0,
                    target_disp=comm.rank)
            win.complete()
            return None

        assert run_world(3, main)[0] == [0.0, 1.0, 2.0]
