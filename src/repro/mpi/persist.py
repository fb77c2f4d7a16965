"""Persistent communication requests (MPI_SEND_INIT / MPI_START).

MPI-3.1's own answer to repeated identical transfers: validate and
set up once, then ``start()`` each iteration.  The CH4 start path
charges only request-reuse plus the descriptor fill (the arguments
were frozen at init, so error checking, datatype derivation, rank
translation, object lookup, PROC_NULL and match-bit work are all
amortized away) — an in-standard cousin of the paper's Section 3
proposals, and a useful baseline for them.  What is amortized is the
*charge*, not the send: a start hands its prebuilt operation, call
plan attached, to the device's one send body (the receive side to its
one post), so a persistent message goes eager or rendezvous, rides its
VCI lane and meets the fault layer like any other of its size.  CH3
has no optimized persistent path: start re-runs its full device
machinery, mirroring the historically unoptimized persistent path of
MPICH/CH3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.consts import PROC_NULL
from repro.core.config import Device
from repro.core.ops import RecvOp, SendOp
from repro.errors import MPIErrRequest
from repro.instrument.categories import Category, Subsystem
from repro.instrument.costs import COSTS
from repro.instrument.fastpath import fastpath
from repro.mpi.pt2pt import (check_recv, check_send, entry_plan, mpi_entry,
                             normalize_buffer, validate_args)
from repro.runtime.request import Request, RequestKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator


@fastpath
def _charge_start(proc) -> None:
    """What one MPI_START charges: the function call, plus — on CH4 —
    request reuse and the descriptor fill, the persistent fast start.
    CH3 never specialized persistent ops: its start re-runs the full
    device path, which charges itself."""
    if not proc.config.ipo:
        proc.charge(Category.FUNCTION_CALL, COSTS.isend_function_call)
    if proc.config.device is Device.CH4:
        proc.charge(Category.MANDATORY, COSTS.noreq_counter_inc,
                    Subsystem.REQUEST_MGMT)
        proc.charge(Category.MANDATORY, COSTS.isend_mandatory.descriptor,
                    Subsystem.DESCRIPTOR)


class PersistentRequest:
    """A reusable operation handle: ``start()`` then ``wait()``, repeat."""

    def __init__(self, comm: "Communicator"):
        self.comm = comm
        self.active: Optional[Request] = None
        self.freed = False

    def start(self) -> Request:
        """MPI_START: launch one instance of the operation."""
        if self.freed:
            raise MPIErrRequest("start on a freed persistent request")
        if self.active is not None and not self.active.is_complete():
            raise MPIErrRequest(
                "start while the previous instance is still active")
        self.active = self._launch()
        return self.active

    def wait(self) -> Request:
        """Wait for the active instance."""
        if self.active is None:
            raise MPIErrRequest("wait without start")
        self.active.wait()
        return self.active

    def free(self) -> None:
        """MPI_REQUEST_FREE for persistent handles."""
        self.freed = True

    def _launch(self) -> Request:  # pragma: no cover - abstract
        raise NotImplementedError


class PersistentSend(PersistentRequest):
    """MPI_SEND_INIT product: everything resolved once, at init."""

    def __init__(self, comm: "Communicator", buf, dest: int, tag: int):
        super().__init__(comm)
        proc, c = comm.proc, COSTS
        data, count, dtref = normalize_buffer(buf)
        # Init pays the full MPI-layer cost once.
        with mpi_entry(proc, entry_plan(proc, c.isend_function_call,
                                        c.isend_thread_check)):
            if proc.config.error_checking:
                validate_args(proc, c.isend_error, check_send(
                    comm, data, count, dtref, dest, tag))
        #: The operation every start issues.  On CH4 it carries the
        #: call site's facts — translated peer, transport, eager
        #: threshold: the amortization persistent requests exist for —
        #: as a plan with no path charges, so the device's one send
        #: body runs and charges nothing.
        self.op = op = SendOp(data, count, dtref, dest, tag, comm,
                              mpi_name="MPI_Start")
        if dest != PROC_NULL and proc.config.device is Device.CH4:
            op.plan = proc.device._send_facts(op, None)

    @fastpath
    def _launch(self) -> Request:
        proc, comm = self.comm.proc, self.comm
        if self.op.dest == PROC_NULL:
            request = proc.request_pool.acquire(RequestKind.SEND)
            request.complete(proc.vclock.now)
            return request
        proc.charge(proc.plan("start", _charge_start))
        if proc.config.device is Device.CH4:
            # Eager or rendezvous, VCI lane, fault wrapping, parked
            # completion: whatever an MPI_ISEND of this size gets.
            hooks = proc.hooks
            if hooks is not None and hooks.comm_check is not None:
                return comm._ft_isend(self.op)
            return proc.device.isend(self.op)
        request = proc.request_pool.acquire(RequestKind.SEND)
        inner = proc.device.isend(self.op)
        inner.wait()
        request.complete(inner.complete_s)
        proc.request_pool.release(inner)
        return request


class PersistentRecv(PersistentRequest):
    """MPI_RECV_INIT product."""

    def __init__(self, comm: "Communicator", buf, source: int, tag: int):
        super().__init__(comm)
        proc, c = comm.proc, COSTS
        data, count, dtref = normalize_buffer(buf)
        with mpi_entry(proc, entry_plan(proc, c.isend_function_call,
                                        c.isend_thread_check)):
            if proc.config.error_checking:
                validate_args(proc, c.isend_error, check_recv(
                    comm, count, dtref, source, tag))
        self.op = RecvOp(data, count, dtref, source, tag, comm,
                         mpi_name="MPI_Start")

    @fastpath
    def _launch(self) -> Request:
        proc = self.comm.proc
        if self.op.source == PROC_NULL:
            request = proc.request_pool.acquire(RequestKind.RECV)
            request.complete(proc.vclock.now, source=PROC_NULL, tag=-1)
            return request
        proc.charge(proc.plan("start", _charge_start))
        if proc.config.device is Device.CH4:
            return proc.device.post_recv(
                self.op, proc.request_pool.acquire(RequestKind.RECV))
        return proc.device.irecv(self.op)


def startall(requests: list[PersistentRequest]) -> list[Request]:
    """MPI_STARTALL."""
    return [r.start() for r in requests]
