"""One-sided communication: windows, sync, atomics, dynamic windows."""

import numpy as np
import pytest

from repro.consts import PROC_NULL
from repro.core.config import BuildConfig
from repro.datatypes import contiguous, resized, subarray, vector
from repro.datatypes.predefined import BYTE, DOUBLE, INT64
from repro.errors import (MPIErrArg, MPIErrBuffer, MPIErrCount,
                          MPIErrDatatype, MPIError, MPIErrRank,
                          MPIErrRMARange, MPIErrRMASync, MPIErrWin)
from repro.mpi import reduceops
from repro.mpi.rma import (LOCK_EXCLUSIVE, LOCK_SHARED, RWLock, Window,
                           WindowState)
from tests.conftest import run_world


class TestWindowState:
    def test_static_view_bounds(self):
        state = WindowState(np.zeros(16, dtype=np.uint8), disp_unit=1)
        assert state.nbytes == 16
        view = state.view(4, 1, DOUBLE)
        view[:] = 7
        with pytest.raises(MPIErrRMARange):
            state.view(10, 8, BYTE)
        with pytest.raises(MPIErrRMARange):
            state.view(-1, 4, BYTE)

    def test_view_spans_count_elements_of_the_layout(self):
        """The span of a strided layout ends at its last element's
        upper bound, not at count x extent."""
        state = WindowState(np.zeros(40, dtype=np.uint8), disp_unit=1)
        # Doubles at bytes 0 and 24 (ub 32), elements 8 bytes apart.
        column = resized(vector(2, 1, 3, DOUBLE), 0, 8).commit()
        assert state.view(0, 2, column).size == 8 + 32
        assert state.view(0, 0, column).size == 0
        with pytest.raises(MPIErrRMARange):
            state.view(0, 3, column)                  # 16 + 32 > 40

    def test_dynamic_attach_detach(self):
        state = WindowState(None, disp_unit=1, dynamic=True)
        arr = np.zeros(100, dtype=np.uint8)
        base = state.attach(arr)
        assert base >= WindowState.PAGE
        view = state.view(base + 10, 5, BYTE)
        view[:] = 3
        assert arr[10] == 3
        state.detach(base)
        with pytest.raises(MPIErrRMARange):
            state.view(base, 1, BYTE)
        with pytest.raises(MPIErrWin):
            state.detach(base)

    def test_dynamic_rejects_initial_buffer(self):
        with pytest.raises(MPIErrWin):
            WindowState(np.zeros(4, dtype=np.uint8), 1, dynamic=True)

    def test_bad_disp_unit(self):
        with pytest.raises(MPIErrArg):
            WindowState(np.zeros(4, dtype=np.uint8), 0)


class TestRWLock:
    def test_shared_readers_coexist(self):
        lock = RWLock()
        lock.acquire(LOCK_SHARED)
        lock.acquire(LOCK_SHARED)
        lock.release(LOCK_SHARED)
        lock.release(LOCK_SHARED)

    def test_unbalanced_release_rejected(self):
        lock = RWLock()
        with pytest.raises(MPIErrRMASync):
            lock.release(LOCK_SHARED)
        with pytest.raises(MPIErrRMASync):
            lock.release(LOCK_EXCLUSIVE)


class TestPutGet:
    def test_put_with_fence(self):
        def main(comm):
            win, mem = Window.allocate(comm, nbytes=8 * comm.size,
                                       disp_unit=8)
            view = mem.view(np.float64)
            win.fence()
            src = np.array([float(comm.rank)], dtype=np.float64)
            win.put(src, target_rank=(comm.rank + 1) % comm.size,
                    target_disp=comm.rank)
            win.fence()
            left = (comm.rank - 1) % comm.size
            return view[left]

        assert run_world(4, main) == [3.0, 0.0, 1.0, 2.0]

    def test_get(self):
        def main(comm):
            local = np.full(4, float(comm.rank * 100))
            win = Window.create(comm, local, disp_unit=8)
            win.fence()
            out = np.zeros(4)
            win.get(out, target_rank=(comm.rank + 1) % comm.size)
            win.flush((comm.rank + 1) % comm.size)
            win.fence()
            return out[0]

        assert run_world(3, main) == [100.0, 200.0, 0.0]

    def test_put_derived_target_layout(self):
        """Non-contiguous target layout exercises the AM fallback."""
        def main(comm):
            mem = np.zeros(12, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            if comm.rank == 0:
                dt = vector(count=3, blocklength=1, stride=2,
                            base=DOUBLE).commit()
                src = np.array([1.0, 2.0, 3.0])
                win.put((src, 3, DOUBLE), target_rank=1, target_disp=0,
                        target=(1, dt))
            win.fence()
            return mem.tolist()

        results = run_world(2, main)
        assert results[1][:6] == [1.0, 0.0, 2.0, 0.0, 3.0, 0.0]

    def test_put_size_mismatch_rejected(self):
        def main(comm):
            mem = np.zeros(8, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            with pytest.raises(MPIErrArg):
                win.put((np.zeros(2), 2, DOUBLE), target_rank=0,
                        target_disp=0, target=(3, DOUBLE))
            win.fence()
            return "ok"

        run_world(2, main)

    def test_put_out_of_window_rejected(self):
        def main(comm):
            mem = np.zeros(2, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            with pytest.raises(MPIErrRMARange):
                win.put(np.zeros(4), target_rank=0, target_disp=0)
            win.fence()
            return "ok"

        run_world(2, main)

    def test_put_to_proc_null_is_noop(self):
        def main(comm):
            mem = np.ones(2, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            win.put(np.zeros(2), target_rank=PROC_NULL)
            win.fence()
            return mem.tolist()

        assert run_world(2, main) == [[1.0, 1.0]] * 2

    def test_bad_target_rank_rejected(self):
        def main(comm):
            win, _ = Window.allocate(comm, nbytes=8)
            win.fence()
            with pytest.raises(MPIErrRank):
                win.put(np.zeros(1), target_rank=7)
            win.fence()
            return "ok"

        run_world(2, main)

    def test_disp_unit_scaling(self):
        def main(comm):
            mem = np.zeros(4, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            if comm.rank == 0:
                win.put(np.array([5.0]), target_rank=1, target_disp=2)
            win.fence()
            return mem.tolist()

        assert run_world(2, main)[1] == [0.0, 0.0, 5.0, 0.0]


class TestAtomics:
    def test_accumulate_sum(self):
        def main(comm):
            mem = np.zeros(2, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            win.accumulate(np.array([1.0, 2.0]), target_rank=0,
                           op=reduceops.SUM)
            win.fence()
            return mem.tolist()

        results = run_world(4, main)
        assert results[0] == [4.0, 8.0]

    def test_accumulate_replace(self):
        def main(comm):
            mem = np.full(1, -1.0)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            if comm.rank == 1:
                win.accumulate(np.array([9.0]), target_rank=0,
                               op=reduceops.REPLACE)
            win.fence()
            return mem[0]

        assert run_world(2, main)[0] == 9.0

    def test_fetch_and_op_counter(self):
        """All ranks atomically increment rank 0's counter; the fetched
        pre-values must be a permutation of 0..size-1."""
        def main(comm):
            mem = np.zeros(1, dtype=np.int64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            got = np.zeros(1, dtype=np.int64)
            win.lock(0, LOCK_EXCLUSIVE)
            win.fetch_and_op(np.ones(1, dtype=np.int64), got,
                             target_rank=0, op=reduceops.SUM)
            win.unlock(0)
            win.fence()
            return int(got[0]), int(mem[0])

        results = run_world(4, main)
        fetched = sorted(r[0] for r in results)
        assert fetched == [0, 1, 2, 3]
        assert results[0][1] == 4

    def test_get_accumulate_no_op_reads_atomically(self):
        def main(comm):
            mem = np.full(1, 42.0)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            out = np.zeros(1)
            win.get_accumulate(np.zeros(1), out, target_rank=0,
                               op=reduceops.NO_OP)
            win.fence()
            return out[0]

        assert run_world(3, main) == [42.0] * 3

    def test_compare_and_swap(self):
        def main(comm):
            mem = np.zeros(1, dtype=np.int64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            old = np.full(1, -1, dtype=np.int64)
            win.lock(0, LOCK_EXCLUSIVE)
            win.compare_and_swap(
                origin=np.full(1, comm.rank + 1, dtype=np.int64),
                compare=np.zeros(1, dtype=np.int64),
                result=old, target_rank=0)
            win.unlock(0)
            win.fence()
            return int(old[0]), int(mem[0])

        results = run_world(3, main)
        winners = [r for r in results if r[0] == 0]
        assert len(winners) == 1                 # exactly one CAS won
        assert results[0][1] in (1, 2, 3)


class TestSync:
    def test_lock_unlock_require_pairing(self):
        def main(comm):
            win, _ = Window.allocate(comm, nbytes=8)
            with pytest.raises(MPIErrRMASync):
                win.unlock(0)
            win.lock(0, LOCK_SHARED)
            with pytest.raises(MPIErrRMASync):
                win.lock(0, LOCK_SHARED)
            win.unlock(0)
            win.fence()
            return "ok"

        run_world(2, main)

    def test_lock_all_unlock_all(self):
        def main(comm):
            win, mem = Window.allocate(comm, nbytes=8, disp_unit=8)
            view = mem.view(np.float64)
            win.fence()
            win.lock_all()
            win.put(np.array([float(comm.rank)]),
                    target_rank=(comm.rank + 1) % comm.size)
            win.flush_all()
            win.unlock_all()
            win.fence()
            return view[0]

        assert run_world(3, main) == [2.0, 0.0, 1.0]

    def test_freed_window_rejected(self):
        def main(comm):
            win, _ = Window.allocate(comm, nbytes=8)
            win.fence()
            win.free()
            with pytest.raises(MPIErrWin):
                win.put(np.zeros(1), target_rank=0)
            return "ok"

        run_world(2, main)


class TestDynamicWindow:
    def test_put_by_virtual_address(self):
        def main(comm):
            win = Window.create_dynamic(comm)
            region = np.zeros(4, dtype=np.float64)
            base = win.local_state.attach(region)
            bases = comm.allgather(base)
            win.fence()
            if comm.rank == 0:
                win.put_virtual_addr(np.array([3.14]), target_rank=1,
                                     vaddr=bases[1] + 8)
            win.fence()
            return region.tolist()

        results = run_world(2, main)
        assert results[1] == [0.0, 3.14, 0.0, 0.0]

    def test_unattached_address_rejected(self):
        def main(comm):
            win = Window.create_dynamic(comm)
            win.fence()
            with pytest.raises(MPIErrRMARange):
                win.put_virtual_addr(np.zeros(1), target_rank=0, vaddr=64)
            win.fence()
            return "ok"

        run_world(2, main)


class TestVirtualAddrExtension:
    def test_matches_offset_put(self):
        def main(comm):
            mem = np.zeros(4, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            if comm.rank == 0:
                vaddr = win.remote_addr(1, disp=2)
                win.put_virtual_addr(np.array([7.0]), 1, vaddr)
            win.fence()
            return mem.tolist()

        assert run_world(2, main)[1] == [0.0, 0.0, 7.0, 0.0]

    def test_saves_four_instructions(self):
        def main(comm):
            mem = np.zeros(4, dtype=np.float64)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            result = None
            if comm.rank == 0:
                src = np.array([1.0])
                with comm.proc.tracer.call("offset"):
                    win.put(src, target_rank=1, target_disp=0)
                vaddr = win.remote_addr(1, disp=0)
                with comm.proc.tracer.call("vaddr"):
                    win.put_virtual_addr(src, 1, vaddr)
                result = (comm.proc.tracer.last("offset").total,
                          comm.proc.tracer.last("vaddr").total)
            win.fence()
            return result

        offset, vaddr = run_world(2, main, BuildConfig.ipo_build())[0]
        assert offset == 44                       # Figure 2 ipo PUT
        assert offset - vaddr == 4                # §3.2 saving


#: The two devices, which must agree on every RMA result and error.
DEVICES = {"ch4": BuildConfig(), "ch3": BuildConfig.original()}

#: Two doubles 16 bytes apart: a derived layout of one predefined type.
STRIDED = vector(2, 1, 2, DOUBLE).commit()

#: Illegal calls on a float64 window, toward rank 1, and the class each
#: raises: MPI-3.1 §11.3.4 wants one predefined type on both sides of
#: an accumulate, and origin and target layouts of the same size.
ILLEGAL = {
    "put_size": (MPIErrArg, lambda win: win.put(
        (np.zeros(2), 2, DOUBLE), 1, 0, target=(3, DOUBLE))),
    "put_negative_target_count": (MPIErrCount, lambda win: win.put(
        np.zeros(1), 1, 0, target=(-1, DOUBLE))),
    "get_size": (MPIErrArg, lambda win: win.get(
        np.zeros(4, np.int64), 1, 0, target=(1, INT64))),
    "accumulate_type": (MPIErrDatatype, lambda win: win.accumulate(
        np.ones(4, np.int32), 1, 0, reduceops.SUM, target=(2, DOUBLE))),
    "get_accumulate_type": (MPIErrDatatype, lambda win: win.get_accumulate(
        np.ones(4, np.int32), np.zeros(4, np.int32), 1, 0, reduceops.SUM,
        target=(2, DOUBLE))),
    "accumulate_size": (MPIErrArg, lambda win: win.accumulate(
        np.ones(3), 1, 0, reduceops.SUM, target=(2, DOUBLE))),
    "accumulate_derived_target": (MPIErrDatatype, lambda win: win.accumulate(
        (np.ones(2), 2, DOUBLE), 1, 0, reduceops.SUM, target=(1, STRIDED))),
    "compare_and_swap_derived": (MPIErrDatatype, lambda win:
                                 win.compare_and_swap(
                                     (np.ones(3), 1, STRIDED), np.ones(3),
                                     np.zeros(3), 1, 0)),
}


def _issued(proc) -> int:
    """Operations this rank's device has handed to a transport."""
    device = proc.device
    return sum(t.n_native + t.n_am_fallback
               for t in (device.netmod, device.shmmod))


class TestRMAAcrossDevices:
    """CH3 and CH4 move the same bytes and reject the same calls: the
    devices differ in what they charge, not in what an RMA call does."""

    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("case", ILLEGAL)
    def test_illegal_call_raises_before_anything_is_issued(self, device,
                                                           case):
        expected, call = ILLEGAL[case]

        def main(comm):
            mem = np.arange(4.0)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            if comm.rank == 0:
                issued = _issued(comm.proc)
                with pytest.raises(expected) as info:
                    call(win)
                # Raised at the origin, inside the entry (annotated),
                # before the transport saw the operation.
                assert info.value.rank == 0 and info.value.op is not None
                assert _issued(comm.proc) == issued
                assert not win._pending
            win.fence()
            return mem.tolist()

        assert run_world(2, main, DEVICES[device])[1] == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("device", DEVICES)
    def test_atomics_to_proc_null_are_no_ops(self, device):
        """MPI_PROC_NULL as an atomic's target: the call returns with
        its result buffer untouched and nothing issued or pending."""
        def main(comm):
            win = Window.create(comm, np.zeros(2), disp_unit=8)
            win.fence()
            issued = _issued(comm.proc)
            fetched, swapped = np.full(1, -1.0), np.full(1, -1.0)
            win.fetch_and_op(np.ones(1), fetched, PROC_NULL, 0)
            win.compare_and_swap(np.ones(1), np.zeros(1), swapped,
                                 PROC_NULL, 1)
            quiet = _issued(comm.proc) == issued and not win._pending
            win.fence()
            return fetched[0], swapped[0], quiet

        assert run_world(2, main, DEVICES[device]) == [(-1.0, -1.0, True)] * 2

    @pytest.mark.parametrize("device", DEVICES)
    def test_compare_is_bytewise(self, device):
        """MPI-3.1 §11.3.4 swaps when compare and target are identical:
        a -0.0 compare leaves a 0.0 target, a NaN compare replaces the
        same NaN — where a numeric compare would do the opposite."""
        def main(comm):
            mem = np.array([0.0, np.nan])
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            old = np.zeros(2)
            win.lock(0, LOCK_EXCLUSIVE)
            win.compare_and_swap(np.array([7.0]), np.array([-0.0]),
                                 old[:1], 0, 0)
            win.compare_and_swap(np.array([9.0]), np.array([np.nan]),
                                 old[1:], 0, 1)
            win.unlock(0)
            win.fence()
            return mem.tolist(), np.signbit(old[0]), np.isnan(old[1])

        mem, negative, nan = run_world(1, main, DEVICES[device])[0]
        assert mem == [0.0, 9.0]
        assert not negative and nan

    def test_devices_agree_on_contents_results_and_errors(self):
        def main(comm):
            mem = np.zeros(6)
            win = Window.create(comm, mem, disp_unit=8)
            win.fence()
            peer, rank = 1 - comm.rank, float(comm.rank)
            fetched = {}
            win.put(np.array([1.5, 2.5]) + rank, peer, 0)
            win.fence()
            out = np.zeros(2)
            win.get(out, peer, 0)
            win.fence()
            fetched["get"] = out.tolist()
            win.accumulate(np.array([10.0, 20.0]) * (rank + 1), peer, 0,
                           reduceops.SUM)
            # A derived origin built from the target's type is legal.
            win.accumulate((np.array([1.0, 99.0, 2.0]), 1, STRIDED), peer,
                           4, reduceops.SUM, target=(2, DOUBLE))
            win.fence()
            out = np.zeros(2)
            win.get_accumulate(np.array([15.0, 15.0]), out, peer, 0,
                               reduceops.MAX)
            win.fence()
            fetched["get_accumulate"] = out.tolist()
            out = np.zeros(1)
            win.fetch_and_op(np.array([3.0 + rank]), out, peer, 2,
                             reduceops.SUM)
            win.fence()
            fetched["fetch_and_op"] = out.tolist()
            swapped, kept = np.zeros(1), np.zeros(1)
            win.compare_and_swap(np.array([7.0]), np.array([3.0 + rank]),
                                 swapped, peer, 2)
            win.compare_and_swap(np.array([9.0]), np.array([1.0]), kept,
                                 peer, 3)
            win.fence()
            fetched["compare_and_swap"] = swapped.tolist() + kept.tolist()
            errors = {}
            if comm.rank == 0:
                for case, (_, call) in ILLEGAL.items():
                    try:
                        call(win)
                    except MPIError as exc:
                        errors[case] = type(exc)
            win.fence()
            return mem.tolist(), fetched, errors

        by_device = {name: run_world(2, main, config)
                     for name, config in DEVICES.items()}
        assert by_device["ch3"] == by_device["ch4"]
        (mem0, fetched0, errors), (mem1, fetched1, _) = by_device["ch4"]
        assert mem0 == [22.5, 43.5, 7.0, 0.0, 1.0, 2.0]
        assert mem1 == [15.0, 22.5, 7.0, 0.0, 1.0, 2.0]
        assert fetched0 == {"get": [1.5, 2.5], "get_accumulate": [11.5, 22.5],
                            "fetch_and_op": [0.0],
                            "compare_and_swap": [3.0, 0.0]}
        assert fetched1 == {"get": [2.5, 3.5], "get_accumulate": [22.5, 43.5],
                            "fetch_and_op": [0.0],
                            "compare_and_swap": [4.0, 0.0]}
        assert errors == {case: cls for case, (cls, _) in ILLEGAL.items()}


#: Calls that raise on the float64 window of rank 1 (4 elements, on
#: another node), the class each raises and whether it raises before
#: the transport sees the operation: a put's origin is read at the
#: origin, before ``issue``; a displacement outside the window, and a
#: get's origin (which the data lands in), only at the target.
ERROR_POINTS = {
    "put_short_origin": (MPIErrBuffer, "before", lambda win: win.put(
        (np.zeros(1), 2, DOUBLE), 1, 0)),
    "put_strided_origin": (MPIErrBuffer, "before", lambda win: win.put(
        np.zeros(4)[::2], 1, 0)),
    "put_size": (MPIErrArg, "before", lambda win: win.put(
        (np.zeros(2), 2, DOUBLE), 1, 0, target=(3, DOUBLE))),
    "put_negative_target_count": (MPIErrCount, "before", lambda win: win.put(
        np.zeros(1), 1, 0, target=(-1, DOUBLE))),
    "put_disp_out_of_range": (MPIErrRMARange, "after", lambda win: win.put(
        np.zeros(1), 1, 4)),
    "get_size": (MPIErrArg, "before", lambda win: win.get(
        np.zeros(2), 1, 0, target=(3, DOUBLE))),
    "get_negative_target_count": (MPIErrCount, "before", lambda win: win.get(
        np.zeros(1), 1, 0, target=(-1, DOUBLE))),
    "get_disp_out_of_range": (MPIErrRMARange, "after", lambda win: win.get(
        np.zeros(1), 1, 4)),
    "get_short_origin": (MPIErrBuffer, "after", lambda win: win.get(
        (np.zeros(1), 2, DOUBLE), 1, 0)),
    "get_readonly_origin": (MPIErrBuffer, "after", lambda win: win.get(
        (bytes(8), 1, DOUBLE), 1, 0)),
}


class TestRMAErrorPoint:
    """Where in the call an illegal put or get raises, on both devices:
    before ``issue`` — nothing on the wire, the clock advanced by the
    call's instructions alone — or after it, at the target, with the
    operation's injection time spent like a legal call's."""

    @pytest.mark.parametrize("device", DEVICES)
    def test_error_class_and_point(self, device):
        from repro.fabric.topology import Topology
        from repro.mpi.tools import PvarSession
        from repro.runtime import World

        def main(comm):
            win = Window.create(comm, np.arange(4.0), disp_unit=8)
            win.fence()
            seen = {}
            if comm.rank == 0:
                session = PvarSession(comm.proc)
                for case, (_, _, call) in ERROR_POINTS.items():
                    raised = []

                    def run():
                        try:
                            call(win)
                        except MPIError as exc:
                            raised.append(type(exc))

                    delta = session.delta(run)
                    seen[case] = (raised, delta["netmod_native_ops"],
                                  delta["instructions_total"],
                                  delta["virtual_time_seconds"])
                for call in ("put", "get"):
                    delta = session.delta(
                        lambda: getattr(win, call)(np.zeros(1), 1, 0))
                    seen[call] = delta["virtual_time_seconds"]
                seen["inject_s"] = comm.proc.device.netmod._inject_s
            win.fence()
            return seen

        config = DEVICES[device]
        seen = World(2, config, topology=Topology(2, 1)).run(
            main, timeout=60)[0]
        # The put path's instructions, whichever point it raises at.
        instructions = 215 if device == "ch4" else 1342
        inject_s = seen["inject_s"]
        for case, (expected, point, _) in ERROR_POINTS.items():
            raised, issued, charged, advance = seen[case]
            legal = seen[case.split("_")[0]]
            assert raised == [expected], case
            assert charged == instructions, case
            if point == "before":
                assert issued == 0, case
                assert advance == pytest.approx(legal - inject_s), case
            else:
                assert issued == 1, case
                assert advance == pytest.approx(legal), case


#: Illegal calls on a call site whose plan ``Window._run`` finds cached
#: and the error each raises: a negative origin count, a type with the
#: cached type's plan key but not committed, a freed window, an
#: accumulate origin of another type with the cached type's plan key —
#: and a derived-type ``compare_and_swap`` after warm ones.  Each is
#: (the legal call that caches the site, what precedes the illegal
#: call, the illegal call, its error).
_PAIR = contiguous(2, DOUBLE).commit()
WARM_SITE = {
    "negative_count": (
        lambda win: win.put(np.zeros(1), 0, 0), lambda win: None,
        lambda win: win.put((np.zeros(1), -1, DOUBLE), 0, 0), MPIErrCount),
    "uncommitted_same_key": (
        lambda win: win.put((np.zeros(2), 1, _PAIR), 0, 0), lambda win: None,
        lambda win: win.put((np.zeros(2), 1, contiguous(2, DOUBLE)), 0, 0),
        MPIErrDatatype),
    "freed_window": (
        lambda win: win.put(np.zeros(1), 0, 0), lambda win: win.free(),
        lambda win: win.put(np.zeros(1), 0, 0), MPIErrWin),
    # A plan key holds usage class and contiguity, not the type: the
    # accumulate type check is per call.
    "accumulate_other_type_same_key": (
        lambda win: win.accumulate(np.ones(1), 0, 0, target=(1, DOUBLE)),
        lambda win: None,
        lambda win: win.accumulate(np.ones(1, np.int64), 0, 0,
                                   target=(1, DOUBLE)),
        MPIErrDatatype),
    "compare_and_swap_derived": (
        lambda win: win.compare_and_swap(np.ones(1), np.zeros(1),
                                         np.zeros(1), 0, 0),
        lambda win: None,
        lambda win: win.compare_and_swap((np.ones(2), 1, _PAIR), np.ones(2),
                                         np.zeros(2), 0, 0),
        MPIErrDatatype),
}


class TestWarmSiteChecks:
    """``Window._run`` tests counts, commits and frees inline on a call
    site whose plan is cached: an illegal call there raises the error a
    first call at a fresh site raises, at the same charge and time."""

    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("case", WARM_SITE)
    def test_warm_site_raises_as_a_cold_one(self, device, case):
        from repro.mpi.tools import PvarSession
        from repro.runtime import World
        legal, before, illegal, expected = WARM_SITE[case]

        def main(comm):
            session = PvarSession(comm.proc)
            seen = []
            for warm in (False, True):
                win = Window.create(comm, np.zeros(4), disp_unit=8)
                win.fence()
                if warm:
                    legal(win)
                    legal(win)
                before(win)
                raised = []

                def run():
                    try:
                        illegal(win)
                    except MPIError as exc:
                        raised.append(type(exc))

                delta = session.delta(run)
                seen.append((raised, delta["instructions_total"],
                             delta["virtual_time_seconds"]))
                if not win.freed:
                    win.free()
            return seen

        cold, warm = World(1, DEVICES[device]).run(main, timeout=60)[0]
        assert cold[0] == [expected]
        assert warm[:2] == cold[:2]
        assert warm[2] == pytest.approx(cold[2])
