"""The CH3 device implementation.

Functionally equivalent to CH4 (same matching engine, same window
registry, same fabrics) but with the layered critical path the paper
measures as "MPICH/Original": virtual-connection lookup, protocol
dispatch, queue management, always-allocated requests, and packet-based
RMA.  Each step performs its (modeled) work and charges the
corresponding :data:`~repro.instrument.costs.CH3_ISEND_STEPS` /
:data:`~repro.instrument.costs.CH3_PUT_STEPS` cost.

CH3 predates the Section 3 extensions — any operation carrying
extension flags is rejected, mirroring that MPICH/Original has no such
entry points.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.ch3.protocol import Protocol, choose_protocol, wire_overhead_s
from repro.consts import ANY_SOURCE, PROC_NULL
from repro.core import am
from repro.core.ch4 import land_recv
from repro.core.ops import (AccOp, CallPlan, GetOp, PutOp, RecvOp, SendOp,
                            SyncState)
from repro.datatypes.pack import pack, packed_size, unpack
from repro.errors import MPIErrArg
from repro.instrument.costs import COSTS, CostModel
from repro.netmod.base import Netmod
from repro.netmod.registry import build_netmod
from repro.netmod.shm import build_shmmod
from repro.runtime.matching import PostedRecv
from repro.runtime.message import Envelope, Message
from repro.runtime.request import Request, RequestKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc


class CH3Device:
    """Per-rank CH3 device instance."""

    name = "ch3"

    def __init__(self, proc: "Proc", costs: CostModel = COSTS):
        self.proc = proc
        self.costs = costs
        self.netmod: Netmod = build_netmod(proc, proc.config.fabric)
        self.shmmod: Netmod = build_shmmod(proc, proc.config.shm_fabric)
        #: Protocol statistics for tests and the eager-threshold ablation.
        self.n_eager = 0
        self.n_rendezvous = 0

    # -- helpers ------------------------------------------------------------

    def _reject_extensions(self, op) -> None:
        if op.flags.any:
            raise MPIErrArg(
                f"{op.mpi_name}: MPICH/Original (CH3) does not implement "
                "the proposed MPI-standard extensions")

    def _charge_steps(self, proc, steps) -> None:
        charge = proc.charge
        for category, subsystem, cost in steps.values():
            charge(category, cost, subsystem)

    def _transport_for(self, dest_world: int) -> Netmod:
        if (dest_world == self.proc.world_rank
                or self.proc.world.topology.same_node(
                    self.proc.world_rank, dest_world)):
            return self.shmmod
        return self.netmod

    # -- call plans -----------------------------------------------------------

    def pt2pt_plan(self, op, peer: int, recv: bool) -> Optional[CallPlan]:
        """CH3's share of one pt2pt call site is its step table's
        charge plan: the layered path re-derives the rest per message,
        which is the point of the comparison.  None for an operation
        carrying extension flags, rejected inside its entry."""
        if op.flags.any:
            return None
        return CallPlan(self.proc.plan("ch3_isend", self._charge_steps,
                                       self.costs.ch3_isend_steps))

    def rma_plan(self, op) -> Optional[CallPlan]:
        """RMA twin of :meth:`pt2pt_plan`."""
        if op.flags.any:
            return None
        return CallPlan(self.proc.plan("ch3_put", self._charge_steps,
                                       self.costs.ch3_put_steps))

    # -- point-to-point -------------------------------------------------------

    def isend(self, op: SendOp) -> "Request | float":
        """Issue a send through the VC/protocol machinery: its request,
        or — for a blocking op born complete — its completion time
        (as :meth:`repro.core.ch4.CH4Device.isend`)."""
        self._reject_extensions(op)
        proc = self.proc
        if op.plan is None:
            proc.charge(proc.plan("ch3_isend", self._charge_steps,
                                  self.costs.ch3_isend_steps))

        if op.dest == PROC_NULL:
            if op.blocking:
                return proc.vclock.now
            request = proc.request_pool.acquire(RequestKind.SEND)
            request.complete(proc.vclock.now)
            return request

        dest_world = op.comm.translation.world_rank(op.dest)

        # Same zero-copy discipline and send order as CH4: borrow the
        # application buffer (copy only under fault injection, whose
        # retransmit stashes hold payloads across calls), acquire early
        # only a handle the sync handshake or a hook must hold, else
        # hand back one born complete.
        payload = pack(op.buf, op.count, op.dtref.datatype,
                       copy=proc.config.fault_plan is not None)
        transport = self._transport_for(dest_world)
        protocol = choose_protocol(len(payload), transport.spec,
                                   proc.config.eager_threshold)
        if protocol is Protocol.EAGER:
            self.n_eager += 1
        else:
            self.n_rendezvous += 1

        request = sync = None
        if op.sync or proc.hooks is not None:
            request = proc.request_pool.acquire(RequestKind.SEND)
            request._keepalive = payload
            if proc.hooks is not None:
                proc.hooks.send(request, dest_world, op.sync, payload,
                                (op.buf, op.count, op.dtref.datatype))
        if op.sync:
            sync = SyncState(request=request,
                             ack_latency_s=transport.spec.latency_s)

        result = transport.issue(len(payload), native=True)
        arrive = result.arrive_s + wire_overhead_s(protocol, transport.spec)
        proc.deliver(dest_world, Message(
            tuple.__new__(Envelope, (op.comm.ctx, op.comm.rank, op.tag,
                                     False)), payload, arrive, sync))

        # Rendezvous: the sender's buffer is free only after the CTS
        # returns.
        complete = (proc.vclock.now + 2 * transport.spec.latency_s
                    if protocol is Protocol.RENDEZVOUS
                    else result.complete_s)
        if request is None:
            if op.blocking:
                return complete
            return proc.request_pool.acquire(RequestKind.SEND, complete,
                                             payload)
        if not op.sync:
            request.complete(complete)
        return request

    def irecv(self, op: RecvOp) -> Request:
        """Post a receive through the CH3 request machinery."""
        self._reject_extensions(op)
        proc = self.proc
        if op.plan is None:
            proc.charge(proc.plan("ch3_isend", self._charge_steps,
                                  self.costs.ch3_isend_steps))

        request = proc.request_pool.acquire(RequestKind.RECV)
        if op.source == PROC_NULL:
            request.complete(proc.vclock.now, source=PROC_NULL, tag=-1,
                             count_bytes=0)
            return request

        if proc.hooks is not None:
            proc.hooks.recv_posting(
                request, None if op.source == ANY_SOURCE
                else op.comm.translation.world_rank(op.source))
        # Same descriptor, same landing as CH4: the devices differ in
        # what they charge, not in where the bytes go.
        proc.engine.post(
            PostedRecv(op.comm.ctx, op.source, op.tag, False, request, None,
                       op.buf, op.count, op.dtref.datatype, land_recv),
            now_s=proc.vclock.now)
        return request

    # -- one-sided (packet-based in CH3) -----------------------------------------

    def _rma_common(self, op):
        """Charge the CH3 RMA packet path; resolve the target."""
        self._reject_extensions(op)
        proc = self.proc
        if op.plan is None:
            proc.charge(proc.plan("ch3_put", self._charge_steps,
                                  self.costs.ch3_put_steps))
        if op.target_rank == PROC_NULL:
            return None
        target_world = op.win.comm.translation.world_rank(op.target_rank)
        state = op.win.state_of(target_world)
        offset_bytes = op.target_disp * state.disp_unit
        return target_world, state, offset_bytes

    def put(self, op: PutOp) -> None:
        """One-sided put through the CH3 packet machinery."""
        resolved = self._rma_common(op)
        if resolved is None:
            return
        target_world, state, offset_bytes = resolved
        target_dt = op.target_dtref.datatype
        data = pack(op.origin_buf, op.origin_count, op.origin_dtref.datatype)
        if len(data) != op.target_count * target_dt.size:
            raise am.size_error(op, len(data))
        transport = self._transport_for(target_world)
        result = transport.issue(len(data), native=True)
        am.am_put(state, data, offset_bytes, op.target_count, target_dt)
        pending = op.win._pending
        pending[target_world] = max(pending.get(target_world, 0.0),
                                    result.arrive_s)

    def get(self, op: GetOp) -> None:
        """One-sided get through the CH3 packet machinery."""
        resolved = self._rma_common(op)
        if resolved is None:
            return
        target_world, state, offset_bytes = resolved
        target_dt = op.target_dtref.datatype
        nbytes = packed_size(op.origin_count, op.origin_dtref.datatype)
        if nbytes != op.target_count * target_dt.size:
            raise am.size_error(op, nbytes)
        transport = self._transport_for(target_world)
        result = transport.issue(nbytes, native=True, round_trip=True)
        data = am.am_get(state, offset_bytes, op.target_count, target_dt)
        unpack(data, op.origin_buf, op.origin_count, op.origin_dtref.datatype)
        pending = op.win._pending
        pending[target_world] = max(pending.get(target_world, 0.0),
                                    result.complete_s)

    def accumulate(self, op: AccOp) -> Optional[bytes]:
        """One-sided accumulate through the CH3 packet machinery."""
        resolved = self._rma_common(op)
        if resolved is None:
            return None
        target_world, state, offset_bytes = resolved
        data = pack(op.origin_buf, op.origin_count, op.origin_dtref.datatype)
        am.check_accumulate(op, len(data))
        transport = self._transport_for(target_world)
        round_trip = op.fetch_buf is not None
        result = transport.issue(len(data), native=True,
                                 round_trip=round_trip)
        before = am.am_accumulate(state, data, offset_bytes, op.target_count,
                                  op.target_dtref.datatype, op.op, round_trip)
        done = result.complete_s if round_trip else result.arrive_s
        if round_trip:
            unpack(before, op.fetch_buf, op.origin_count,
                   op.origin_dtref.datatype)
        pending = op.win._pending
        pending[target_world] = max(pending.get(target_world, 0.0), done)
        return before
