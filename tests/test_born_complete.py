"""A born-complete request is a request.

An eager send on a build nothing observes hands back a handle that was
never pending (``RequestPool.acquire(kind, complete_s, keepalive)``).
Everything a user can do with a request must behave on it exactly as
on one that went pending -> complete: the wait/test family, completion
callbacks (exactly once, immediately), cancel, the keep-alive pin, the
pool's recycle, and the virtual time merged at ``wait``.
"""

import numpy as np
import pytest

from repro.core.config import BuildConfig, Device
from repro.datatypes import DOUBLE
from repro.errors import MPIErrBuffer, MPIErrRequest
from repro.mpi.comm import Communicator
from repro.runtime import request as request_api     # testsome: no test
from repro.runtime.request import (Request, RequestKind, waitall, waitany,
                                   waitsome)
from repro.runtime.world import World
from tests.conftest import run_world

DEVICES = [Device.CH4, Device.CH3]


def _self_comm(config=None):
    """A one-rank world's communicator, driven from the test thread."""
    return Communicator.world_view(World(1, config or BuildConfig()).proc(0))


def _born_complete_sends(comm):
    """One handle per API that returns an eager send's request, each
    with its matching receive posted first: ``(label, send request,
    receive request)``."""
    out = []
    bufs = [np.zeros(2) for _ in range(3)]
    rreq = comm.Irecv(bufs[0], 0, 1)
    out.append(("Isend", comm.Isend(np.full(2, 1.0), 0, 1), rreq))
    rreq = comm._irecv_bytes(0, 2)
    out.append(("_isend_bytes", comm._isend_bytes(b"xy", 0, 2), rreq))
    rreq = comm.Irecv(bufs[2], 0, 3)
    out.append(("start", comm.Send_init(np.full(2, 3.0), 0, 3).start(), rreq))
    return out


@pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.value)
class TestIsARequest:
    def test_done_without_ever_pending(self, device):
        comm = _self_comm(BuildConfig(device=device))
        for label, sreq, rreq in _born_complete_sends(comm):
            assert sreq.__class__ is Request, label
            assert sreq.kind is RequestKind.SEND
            assert sreq.is_complete() and sreq.test(), label
            assert sreq.wait() is sreq
            assert sreq.error is None and not sreq.cancelled
            assert sreq._parked is None and not sreq._waiters
            assert rreq.wait().is_complete()

    def test_callbacks_run_exactly_once_and_immediately(self, device):
        comm = _self_comm(BuildConfig(device=device))
        for label, sreq, _ in _born_complete_sends(comm):
            seen = []
            sreq.subscribe(lambda r: seen.append(("subscribe", r)))
            assert seen == [("subscribe", sreq)], label
            sreq.on_complete(lambda r: seen.append(("on_complete", r)))
            sreq.attach_continuation(lambda r: seen.append(("attach", r)))
            assert [kind for kind, _ in seen] == [
                "subscribe", "on_complete", "attach"], label
            sreq.wait()
            assert len(seen) == 3       # nothing fires again at wait
            assert not sreq._waiters and not sreq._flushing

    def test_cancel_is_a_noop(self, device):
        comm = _self_comm(BuildConfig(device=device))
        for label, sreq, rreq in _born_complete_sends(comm):
            sreq.cancel()
            assert not sreq.cancelled and sreq.is_complete(), label
            sreq.wait()
            assert rreq.wait().count_bytes > 0

    def test_completing_it_again_is_a_program_error(self, device):
        sreq = _born_complete_sends(
            _self_comm(BuildConfig(device=device)))[0][1]
        with pytest.raises(MPIErrRequest, match="completed twice"):
            sreq.complete(0.0)

    def test_blocking_send_releases_it(self, device):
        comm = _self_comm(BuildConfig(device=device))
        pool = comm.proc.request_pool
        got = np.zeros(1)
        rreq = comm.Irecv(got, 0, 4)
        comm.Send(np.full(1, 4.0), 0, 4)
        assert got[0] == 4.0 and len(pool._free) == 1
        rreq.wait()
        pool.release(rreq)
        # ... and its next life is an ordinary pending receive.
        again = comm.Irecv(got, 0, 5)
        assert again is rreq and not again.is_complete()
        assert comm.proc.engine.cancel_posted(again) and again.cancelled


class TestMixedLists:
    """The wait/test families over lists mixing born-complete sends
    with receives that are still pending."""

    def _mixed(self, comm):
        bufs = [np.zeros(1) for _ in range(3)]
        pending = [comm.Irecv(bufs[0], 0, 10), comm.Irecv(bufs[1], 0, 11)]
        matched = comm.Irecv(bufs[2], 0, 12)
        sends = [comm.Isend(np.full(1, 12.0), 0, 12)]
        return pending, matched, sends

    def _finish(self, comm, pending):
        for tag, req in zip((10, 11), pending):
            comm.Send(np.full(1, float(tag)), 0, tag)
            assert req.wait().tag == tag

    def test_waitany_returns_the_born_complete_one(self):
        comm = _self_comm()
        pending, matched, sends = self._mixed(comm)
        reqs = pending + sends
        assert waitany(reqs) == 2
        assert all(not r._waiters for r in pending)   # nothing subscribed
        assert matched.wait().tag == 12
        self._finish(comm, pending)

    def test_waitsome_and_testsome_pick_only_the_done(self):
        comm = _self_comm()
        pending, matched, sends = self._mixed(comm)
        reqs = [pending[0], sends[0], pending[1], matched]
        assert request_api.testsome(reqs) == [1, 3]
        assert waitsome(reqs) == [1, 3]
        assert all(not r._waiters for r in pending)
        self._finish(comm, pending)
        assert request_api.testsome(reqs) == [0, 1, 2, 3]

    def test_waitall_across_two_ranks(self):
        """64 pre-posted receives, 64 eager sends, one waitall over
        both lists on each rank — the msgrate shape."""
        def main(comm):
            peer = 1 - comm.rank
            got = np.zeros((64, 1), np.uint8)
            reqs = [comm.Irecv(got[i], peer, i) for i in range(64)]
            comm.barrier()
            reqs += [comm.Isend(np.full(1, i, np.uint8), peer, i)
                     for i in range(64)]
            waitall(reqs)
            for req in reqs:
                comm.proc.request_pool.release(req)
            return got[:, 0].tolist()

        for result in run_world(2, main):
            assert result == list(range(64))


@pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.value)
class TestKeepaliveAndRecycle:
    def test_pins_the_payload_view_until_release(self, device):
        comm = _self_comm(BuildConfig(device=device))
        pool = comm.proc.request_pool
        data = np.full(3, 2.0)
        rreq = comm.Irecv(np.zeros(3), 0, 1)
        sreq = comm.Isend(data, 0, 1)
        view = sreq._keepalive
        assert isinstance(view, memoryview)
        assert np.shares_memory(np.frombuffer(view, np.uint8), data)
        sreq.wait()
        assert sreq._keepalive is view      # wait does not unpin
        pool.release(sreq)
        rreq.wait()
        pool.release(rreq)

    def test_next_life_starts_clean(self, device):
        comm = _self_comm(BuildConfig(device=device))
        pool = comm.proc.request_pool
        rreq = comm.Irecv(np.zeros(1), 0, 1)
        sreq = comm.Isend(np.full(1, 1.0), 0, 1)
        sreq.wait()
        rreq.wait()
        pool.release(rreq)
        pool.release(sreq)
        epoch = sreq._epoch
        again = pool.acquire(RequestKind.RECV)
        assert again is sreq and again._epoch == epoch + 1
        assert again.kind is RequestKind.RECV
        assert not again.is_complete() and not again.test()
        assert again.complete_s == 0.0 and again.error is None
        assert again._keepalive is None and again.payload is None
        assert again._parked is None and not again._waiters
        assert (again.source, again.tag, again.count_bytes) == (-1, -1, 0)
        assert not again.cancelled and again._posted is None

    def test_a_pending_life_after_a_born_complete_one_fires_late(self,
                                                                 device):
        """The recycled handle's callbacks belong to its new life."""
        comm = _self_comm(BuildConfig(device=device))
        pool = comm.proc.request_pool
        comm.Send(np.full(1, 1.0), 0, 1)    # born complete, released
        got = np.zeros(1)
        rreq = comm.Irecv(got, 0, 1)        # matches the unexpected send
        rreq.wait()
        pool.release(rreq)
        rreq = comm.Irecv(got, 0, 2)
        seen = []
        rreq.subscribe(seen.append)
        assert seen == []
        comm.Send(np.full(1, 2.0), 0, 2)
        assert seen == [rreq] and got[0] == 2.0


class TestCompletionTime:
    """``complete_s`` merged at ``wait`` is the value ``issue``
    returned — eager — or ``now + 2 x latency`` — rendezvous."""

    def _two_ranks(self, device, nbytes, fabric="ofi"):
        config = BuildConfig(device=device, fabric=fabric)

        def main(comm):
            proc = comm.proc
            if comm.rank == 1:
                comm.Recv(np.zeros(nbytes, np.uint8), 0, 1)
                return None
            issued = []
            netmod = proc.device.netmod
            original = netmod.issue

            def issue(*args, **kwargs):
                result = original(*args, **kwargs)
                issued.append((result, proc.vclock.now))
                return result

            netmod.issue = issue
            try:
                req = comm.Isend(np.zeros(nbytes, np.uint8), 1, 1)
            finally:
                del netmod.issue
            (result, now), = issued
            before = proc.vclock.now
            req.wait()
            return (req.complete_s, result.complete_s, now,
                    netmod.spec.latency_s, before, proc.vclock.now)

        from repro.fabric.topology import Topology
        world = World(2, config, topology=Topology(nranks=2,
                                                   cores_per_node=1))
        return world.run(main, timeout=60)[0]

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.value)
    def test_eager_is_what_issue_returned(self, device):
        complete_s, issued_s, _, _, before, after = self._two_ranks(device, 8)
        assert complete_s == issued_s
        assert after == max(before, complete_s)

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.value)
    def test_rendezvous_is_two_latencies_on(self, device):
        complete_s, issued_s, now, latency, before, after = \
            self._two_ranks(device, 1 << 20)
        assert latency > 0
        assert complete_s == now + 2 * latency != issued_s
        assert after == max(before, complete_s) == complete_s


class TestFailedPackLeavesNoRequest:
    """A send whose buffer ``pack`` refuses used to leak the request it
    had already acquired — and under the sanitizer the leak report
    (MSD202) then buried the typed error the program had handled."""

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.value)
    def test_pool_is_where_it_was(self, device):
        comm = _self_comm(BuildConfig(device=device))
        pool = comm.proc.request_pool
        comm.Send(np.zeros(1), 0, 9)        # one handle in the pool
        comm.Recv(np.zeros(1), 0, 9)
        before = pool.n_alloc, len(pool._free)
        for _ in range(3):
            with pytest.raises(MPIErrBuffer, match="need 64"):
                comm.Isend((np.zeros(4), 8, DOUBLE), 0, 1)
        assert (pool.n_alloc, len(pool._free)) == before

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.value)
    def test_sanitized_world_finishes_clean(self, device):
        def main(comm):
            try:
                comm.Isend((np.zeros(4), 8, DOUBLE), 0, 1)
            except MPIErrBuffer as exc:
                return exc.op
        assert run_world(1, main, BuildConfig(
            device=device, sanitize=True)) == ["MPI_Isend"]


class TestReleaseRefusesPending:
    """Releasing a receive that is still queued used to recycle it
    under the matching engine: the next message for the old tag then
    completed the handle's *next* life."""

    def _scenario(self, comm):
        pool = comm.proc.request_pool
        a, b = np.zeros(1), np.ones(1)
        r1 = comm.Irecv(a, 0, 5)
        with pytest.raises(MPIErrRequest, match="pending recv"):
            pool.release(r1)
        r2 = comm.Irecv(b, 0, 6)
        assert r2 is not r1
        comm.Send(np.full(1, 9.0), 0, 5)
        assert r1.wait().tag == 5 and a[0] == 9.0
        assert not r2.is_complete() and b[0] == 1.0
        comm.Send(np.full(1, 8.0), 0, 6)
        assert r2.wait().tag == 6 and b[0] == 8.0
        pool.release(r1)
        pool.release(r2)
        return True

    def test_default_build(self):
        assert self._scenario(_self_comm())

    def test_sanitized_build_reports_one_error_not_two(self):
        """The refusal is the one error: the sanitizer does not add a
        leak report for the handle the program went on to finish."""
        assert run_world(1, self._scenario,
                         BuildConfig(sanitize=True)) == [True]

    def test_subclasses_and_none_still_pass_through(self):
        pool = _self_comm().proc.request_pool

        class Sub(Request):
            pass

        pool.release(None)
        pool.release(Sub(RequestKind.GENERALIZED))      # pending, dropped
        assert not pool._free
