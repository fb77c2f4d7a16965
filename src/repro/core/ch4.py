"""The CH4 device: the paper's lightweight critical path.

Design goals transcribed from Section 2 of the paper:

1. the fast path "flows as directly as possible to either the netmod
   or the shmmod using the fewest instructions";
2. "the communication semantics are never lost all the way through the
   software stack" — every method here receives the full MPI-level
   operation descriptor and the netmod/shmmod decides native-vs-AM
   with complete information.

Every step charges its calibrated instruction cost *as it executes*;
extension flags (Section 3 proposals) replace expensive steps with
their cheap counterparts, so Table 1 / Figures 2 and 6 fall out of the
accounting of real executions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from numpy import ndarray

from repro.consts import ANY_SOURCE, PROC_NULL
from repro.core import am
from repro.core.extensions import ExtFlags
from repro.core.ops import (RECV_PLAN, AccOp, CallPlan, GetOp, PutOp,
                            RecvOp, SendOp, SyncState)
from repro.datatypes.pack import as_bytes, pack, unpack
from repro.datatypes.usage import DatatypeRef, UsageClass
from repro.core.config import IpoScope
from repro.errors import MPIErrArg, MPIError, MPIErrRank
from repro.instrument.categories import Category, Subsystem
from repro.instrument.costs import COSTS, CostModel, MandatoryCosts, RedundantCheckCosts
from repro.instrument.fastpath import fastpath
from repro.netmod.base import Netmod
from repro.netmod.registry import build_netmod
from repro.netmod.shm import build_shmmod
from repro.runtime.message import Envelope, Message
from repro.runtime.matching import PostedRecv
from repro.runtime.ranktrans import DirectTableTranslation
from repro.runtime.request import Request, RequestKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc

_MAND = Category.MANDATORY
_RED = Category.REDUNDANT_CHECKS
_SEND = RequestKind.SEND
_RECV = RequestKind.RECV


def land_recv(posted: PostedRecv, msg: Message) -> None:
    """The receive landing, for every device and API: scatter *msg*
    into the buffer *posted* describes and complete its request — on
    the thread that made the match, under the engine lock.  (Here, not
    beside the descriptor, so ``unpack`` is the name tools patch.)"""
    request = posted.request
    env = msg.env
    data = msg.data
    try:
        if posted.buf is None:
            # Bufferless receive: the payload outlives the sender's
            # buffer, so take ownership.
            request.payload = data = msg.owned_data()
        else:
            unpack(data, posted.buf, posted.count, posted.datatype)
        request.complete(msg.arrive_s, env.src, env.tag, len(data))
    except BaseException as exc:  # noqa: BLE001 - handed to waiter
        request.complete(msg.arrive_s, env.src, env.tag, len(data), exc)


class CH4Device:
    """Per-rank CH4 device instance (ch4 core + one netmod + one shmmod)."""

    name = "ch4"

    def __init__(self, proc: "Proc", costs: CostModel = COSTS):
        self.proc = proc
        self.costs = costs
        self.netmod: Netmod = build_netmod(proc, proc.config.fabric)
        self.shmmod: Netmod = build_shmmod(proc, proc.config.shm_fabric)
        self.force_am = proc.config.force_am_fallback
        #: Sends snapshot their payload instead of borrowing the
        #: application buffer: a fault-injected build, whose
        #: retransmit stash holds payloads across calls.
        self.copy_sends = proc.config.fault_plan is not None
        #: Protocol statistics (CH4 also switches to rendezvous for
        #: large payloads — handled inside the netmod path, with no
        #: extra instruction charges on the fast path).
        self.n_eager = 0
        self.n_rendezvous = 0

    # ------------------------------------------------------------------ #
    # shared charging helpers                                             #
    # ------------------------------------------------------------------ #

    def _transport_for(self, dest_world: int) -> Netmod:
        """CH4 core locality check: self/intra-node -> shmmod, else netmod."""
        if dest_world == self.proc.world_rank:
            return self.shmmod
        if self.proc.world.topology.same_node(self.proc.world_rank, dest_world):
            return self.shmmod
        return self.netmod

    def _path_key(self, path: str, flags: ExtFlags, static_handle: bool,
                  comm, dtref: DatatypeRef) -> tuple:
        """The plan key of *path* (the operation, sync mode and an
        MPI_PROC_NULL peer folded in): what its charging code branches
        on beyond the build — flags, handle kind, translation class,
        datatype usage class."""
        return (path, flags.bits, static_handle,
                comm.translation.lookup_instructions, dtref.usage.index)

    @fastpath
    def _charge_object_lookup(self, proc, flags: ExtFlags,
                              static_handle: bool,
                              mandatory: MandatoryCosts) -> None:
        """Section 3.3: dynamic-object dereference vs static-index load."""
        if flags.static_comm or static_handle:
            proc.charge(_MAND, self.costs.predefined_object_lookup,
                        Subsystem.OBJECT_LOOKUP)
        else:
            proc.charge(_MAND, mandatory.object_lookup,
                        Subsystem.OBJECT_LOOKUP)

    def _redundant_checks_needed(self, dtref: DatatypeRef) -> bool:
        """Section 2.2: which datatype-usage classes keep their runtime
        checks under the build's inlining scope."""
        scope = self.proc.config.ipo_scope
        if dtref.usage is UsageClass.DERIVED:
            return True                     # Class 1: genuinely needed
        if scope is IpoScope.NONE:
            return True                     # no inlining: always checked
        if dtref.usage is UsageClass.COMPILE_TIME:
            return False                    # Class 2: folded by MPI-only ipo
        return scope is not IpoScope.WHOLE_PROGRAM   # Class 3

    @fastpath
    def _charge_redundant(self, proc, dtref: DatatypeRef,
                          costs: RedundantCheckCosts) -> None:
        if self._redundant_checks_needed(dtref):
            proc.charge(_RED, costs.datatype_size)
            proc.charge(_RED, costs.contiguity)
            proc.charge(_RED, costs.builtin_branch)
            proc.charge(_RED, costs.addr_arith)

    @fastpath
    def _charge_rank_translation(self, proc, comm, flags: ExtFlags,
                                 mandatory: MandatoryCosts) -> None:
        """Section 3.1: communicator-rank translation (or the global-rank
        bypass).  Direct-table communicators charge their cheap 2-instr
        lookup; the calibrated default (compressed) charges the
        per-operation calibrated cost."""
        if flags.global_rank:
            proc.charge(_MAND, self.costs.global_rank_lookup,
                        Subsystem.RANK_TRANSLATION)
        elif isinstance(comm.translation, DirectTableTranslation):
            proc.charge(_MAND, comm.translation.lookup_instructions,
                        Subsystem.RANK_TRANSLATION)
        else:
            proc.charge(_MAND, mandatory.rank_translation,
                        Subsystem.RANK_TRANSLATION)

    def _resolve_dest(self, comm, dest: int, flags: ExtFlags) -> int:
        return dest if flags.global_rank else comm.translation.world_rank(dest)

    # ------------------------------------------------------------------ #
    # point-to-point                                                      #
    # ------------------------------------------------------------------ #

    @fastpath
    def _charge_pt2pt(self, proc, op, peer: int, recv: bool) -> bool:
        """Every charge of one isend / irecv, in path order (the paper
        omits MPI_IRECV's analysis because "the software path is largely
        identical").  Compiled to a plan once per key, it ends where the
        call does: at the §3.4 branch for a PROC_NULL peer (False), and
        where it raises — for an NPN call given MPI_PROC_NULL and for
        noreq + sync, which no key caches (:meth:`_enter_uncharged`)."""
        c = self.costs
        man = c.isend_mandatory
        flags = op.flags
        comm = op.comm

        self._charge_object_lookup(proc, flags, comm.is_predefined_handle,
                                   man)
        self._charge_redundant(proc, op.dtref, c.isend_redundant)
        if recv:
            # Before the PROC_NULL branch, whose early return hands back
            # a request that has to be paid for (audit rule FP104).
            proc.charge(_MAND, man.request_mgmt, Subsystem.REQUEST_MGMT)

        # Section 3.4: MPI_PROC_NULL.
        if flags.no_proc_null:
            if proc.config.error_checking and peer == PROC_NULL:
                raise MPIErrRank(
                    f"{op.mpi_name}: NPN routine called with MPI_PROC_NULL")
        else:
            proc.charge(_MAND, man.proc_null, Subsystem.PROC_NULL)
            if peer == PROC_NULL:
                if not recv:
                    # Immediate success still hands back a handle, or
                    # bumps the bulk counter under noreq (§3.5).
                    proc.charge(_MAND, c.noreq_counter_inc if flags.noreq
                                else man.request_mgmt,
                                Subsystem.REQUEST_MGMT)
                return False

        if not (recv and peer == ANY_SOURCE):
            self._charge_rank_translation(proc, comm, flags, man)

        # Section 3.6: full match bits, arrival-order bits, or the
        # single-load form when the context is static (3.6 + 3.3).
        if flags.nomatch:
            static_ctx = (flags.static_comm or flags.global_rank
                          or comm.is_predefined_handle)
            bits = c.nomatch_bits_static if static_ctx else c.nomatch_bits
            proc.charge(_MAND, bits, Subsystem.MATCH_BITS)
        else:
            proc.charge(_MAND, man.match_bits, Subsystem.MATCH_BITS)

        # Section 3.5: per-operation request vs bulk counter (a receive
        # paid for its request above).
        if not recv:
            if not flags.noreq:
                proc.charge(_MAND, man.request_mgmt, Subsystem.REQUEST_MGMT)
            elif op.sync:
                raise MPIErrArg("synchronous mode cannot combine with noreq")
            else:
                proc.charge(_MAND, c.noreq_counter_inc,
                            Subsystem.REQUEST_MGMT)

        # Descriptor fill (fused under the combined extensions, §3.7).
        desc = (c.fused_descriptor_isend if flags.fused_pt2pt
                else man.descriptor)
        proc.charge(_MAND, desc, Subsystem.DESCRIPTOR)
        return True

    def _send_facts(self, op: SendOp, path) -> CallPlan:
        """What a send's call site fixes below the charges: the
        translated destination, its transport (the CH4 locality
        check), whether that moves the datatype natively, and the
        eager threshold."""
        dest_world = self._resolve_dest(op.comm, op.dest, op.flags)
        transport = self._transport_for(dest_world)
        threshold = self.proc.config.eager_threshold
        return CallPlan(
            path, dest_world, transport,
            native=(not self.force_am
                    and transport.send_is_native(op.dtref.datatype.contig)),
            threshold=(transport.spec.rendezvous_threshold
                       if threshold is None else threshold))

    def pt2pt_plan(self, op, peer: int, recv: bool) -> Optional[CallPlan]:
        """The device's share of one pt2pt call site, resolved on its
        first use: the path's charge plan and, for a send, what
        :meth:`_send_facts` resolves.  A site ending at MPI_PROC_NULL
        gets its own plan (``peer_world = PROC_NULL``).  None for a
        site that raises — in its charging code, or translating a peer
        a build without error checking let through — whose calls
        charge the prefix they reach (:meth:`_enter_uncharged`)."""
        comm = op.comm
        null = peer == PROC_NULL
        kind = (("irecv_any" if peer == ANY_SOURCE else "irecv") if recv
                else "issend" if op.sync else "isend")
        try:
            path = self.proc.plan(
                self._path_key(kind + "_null" if null else kind, op.flags,
                               comm.is_predefined_handle, comm, op.dtref),
                self._charge_pt2pt, op, peer, recv)
            ends = null and not op.flags.no_proc_null   # at §3.4
            plan = (CallPlan(path) if recv or ends
                    else self._send_facts(op, path))
        except MPIError:
            return None
        if ends:
            plan.peer_world = PROC_NULL
        return plan

    @fastpath
    def _enter_uncharged(self, op, peer: int, recv: bool) -> CallPlan:
        """An op no entry has charged for (an internal send, a call no
        plan carries): charge its path, return its call plan.  A site
        no plan carries raises — in its charging code (an NPN call
        given MPI_PROC_NULL, noreq + sync) or translating a send's peer
        — and charges the prefix it reached first."""
        proc = self.proc
        plan = op.comm._call_plan(op, RECV_PLAN if recv else op.sync, peer)
        if plan is None:
            with proc.recording() as recorder:
                self._charge_pt2pt(recorder, op, peer, recv)
                self._send_facts(op, None)
        proc.charge(plan.path)
        return plan

    @fastpath
    def isend(self, op: SendOp) -> Optional[Request]:
        """Issue a send; returns None under the noreq extension."""
        proc = self.proc
        plan = op.plan or self._enter_uncharged(op, op.dest, False)
        flags = op.flags
        comm = op.comm
        if plan.peer_world == PROC_NULL:
            # "Succeeds immediately" — its plan paid for the handle.
            if flags.noreq:
                comm.note_noreq_issue(proc.vclock.now)
                return None
            request = proc.request_pool.acquire(_SEND)
            request.complete(proc.vclock.now)
            return request

        # Zero-copy fast path: the payload borrows the application
        # buffer; the request pins the view until recycled.
        payload = pack(op.buf, op.count, op.dtref.datatype, self.copy_sends)
        nbytes = len(payload)
        transport = plan.transport
        # A handle something must hold before delivery — the sync
        # handshake completes it, a hook records it — is acquired
        # pending, after ``pack`` (which may refuse the buffer); every
        # other send's is born complete once its time is known.
        request = vci = sync = None
        hooks = proc.hooks
        if (op.sync or hooks is not None) and not flags.noreq:
            request = proc.request_pool.acquire(_SEND)
            request._keepalive = payload
        if hooks is not None:
            # Injection lane: the VCI owning this send's (ctx, dest,
            # tag) stream (None in the unsharded build).
            if hooks.route is not None:
                vci = hooks.route(comm.ctx, op.dest, op.tag, flags.nomatch)
            if request is not None:
                hooks.send(request, plan.peer_world, op.sync, payload,
                           (op.buf, op.count, op.dtref.datatype))
        if op.sync:
            sync = SyncState(request=request,
                             ack_latency_s=transport.spec.latency_s)

        # Large payloads go rendezvous (RTS/CTS round trip on the wire;
        # CH4's netmod handles it without extra fast-path instructions).
        rendezvous = nbytes > plan.threshold
        if rendezvous:
            self.n_rendezvous += 1
        else:
            self.n_eager += 1

        complete, arrive = transport.issue(nbytes, plan.native, vci=vci)
        if rendezvous:
            arrive += 2.0 * transport.spec.latency_s
            complete = proc.vclock.now + 2.0 * transport.spec.latency_s
        if vci is not None:
            vci.completion.note("send", complete)
        # The envelope is built at C level: no frame for its __new__.
        proc.deliver(plan.peer_world, Message(
            tuple.__new__(Envelope, (comm.ctx, comm.rank, op.tag,
                                     flags.nomatch)), payload, arrive, sync))

        if flags.noreq:
            comm.note_noreq_issue(complete)
            return None
        if request is None:
            return proc.request_pool.acquire(_SEND, complete, payload)
        if not op.sync:
            # Rendezvous completion (CTS arrival) is background-capable:
            # with a progress engine the precomputed completion parks on
            # the VCI's lane and the engine thread retires it — same
            # virtual time, same charges, zero user polls.  Eager and
            # progress=None builds complete inline as always.
            if rendezvous and hooks is not None and \
                    hooks.park_rendezvous(vci, transport, request, complete):
                return request
            request.complete(complete)
        return request

    @fastpath
    def irecv(self, op: RecvOp) -> Request:
        """Post a receive.

        The charge structure mirrors :meth:`isend` — the paper omits
        MPI_IRECV's analysis because "the software path is largely
        identical ... for network APIs that support matching".
        """
        proc = self.proc
        plan = op.plan or self._enter_uncharged(op, op.source, True)
        request = proc.request_pool.acquire(_RECV)
        if plan.peer_world == PROC_NULL:
            # Standard: receive from PROC_NULL completes immediately
            # with source=PROC_NULL, tag=ANY_TAG, zero data.
            request.complete(proc.vclock.now, source=PROC_NULL,
                             tag=-1, count_bytes=0)
            return request
        return self.post_recv(op, request)

    def post_recv(self, op: RecvOp, request: Request) -> Request:
        """Post the already-charged receive *op* on *request* (also the
        whole device side of a persistent receive's MPI_START)."""
        proc = self.proc
        comm = op.comm
        hooks = proc.hooks
        if hooks is not None:
            source = (None if op.source == ANY_SOURCE
                      else comm.translation.world_rank(op.source))
            hooks.recv_posting(request, source)
        proc.engine.post(
            PostedRecv(comm.ctx, op.source, op.tag, op.flags.nomatch,
                       request, None, op.buf, op.count, op.dtref.datatype,
                       land_recv), proc.vclock.now)
        if hooks is not None:
            # After posting, so a message already waiting in the
            # unexpected queue wins over a concurrent peer-death
            # notification (ULFM: a matched receive is not in error).
            hooks.recv_posted(request, source, comm)
        return request

    # ------------------------------------------------------------------ #
    # one-sided                                                           #
    # ------------------------------------------------------------------ #

    @fastpath
    def _charge_rma(self, proc, op) -> bool:
        """Every charge of one put/get/accumulate, in path order: object
        lookup, redundant checks, PROC_NULL (False when the target is
        MPI_PROC_NULL — a no-op per the standard), rank translation,
        address resolution and the descriptor fill."""
        c = self.costs
        man = c.put_mandatory
        flags = op.flags
        win = op.win

        self._charge_object_lookup(proc, flags, win.is_predefined_handle,
                                   man)
        self._charge_redundant(proc, op.origin_dtref, c.put_redundant)

        if flags.no_proc_null:
            if proc.config.error_checking and op.target_rank == PROC_NULL:
                raise MPIErrRank(
                    f"{op.mpi_name}: NPN routine called with MPI_PROC_NULL")
        else:
            proc.charge(_MAND, man.proc_null, Subsystem.PROC_NULL)
            if op.target_rank == PROC_NULL:
                return False

        self._charge_rank_translation(proc, win.comm, flags, man)
        # Section 3.2: offset -> virtual address translation.
        vm = c.virtual_addr_lookup if flags.virtual_addr else man.vm_addressing
        proc.charge(_MAND, vm, Subsystem.VM_ADDRESSING)
        desc = c.fused_descriptor_put if flags.fused_rma else man.descriptor
        proc.charge(_MAND, desc, Subsystem.DESCRIPTOR)
        return True

    def _rma_facts(self, op, path) -> CallPlan:
        """What an RMA call site fixes below the charges: the target's
        world rank and exposed-memory state, the transport, whether
        that runs the (plain, atomic) operation natively, and whether
        both types are contiguous — a put or get of such moves its
        bytes as one RDMA transfer, whatever the charges say."""
        win = op.win
        target_world = self._resolve_dest(win.comm, op.target_rank, op.flags)
        transport = self._transport_for(target_world)
        contig = (op.origin_dtref.datatype.contig
                  and op.target_dtref.datatype.contig)
        plan = CallPlan(
            path, target_world, transport,
            native=not self.force_am and transport.rma_is_native(contig),
            native_atomic=(not self.force_am
                           and transport.rma_is_native(contig, atomic=True)),
            contig=contig)
        plan.state = win.state_of(target_world)
        return plan

    def rma_plan(self, op) -> Optional[CallPlan]:
        """The device's share of one put/get/accumulate call site,
        resolved on its first use (see :meth:`pt2pt_plan`): its own
        plan when the target is MPI_PROC_NULL, None when it raises."""
        win = op.win
        null = op.target_rank == PROC_NULL
        try:
            path = self.proc.plan(
                self._path_key("rma_null" if null else "rma", op.flags,
                               win.is_predefined_handle, win.comm,
                               op.origin_dtref),
                self._charge_rma, op)
            if not null or op.flags.no_proc_null:
                return self._rma_facts(op, path)
        except MPIError:
            return None
        plan = CallPlan(path)
        plan.peer_world = PROC_NULL
        return plan

    @fastpath
    def _rma_prologue(self, op) -> CallPlan:
        """The RMA twin of :meth:`_enter_uncharged`, for an op its
        entry did not charge (``op.plan`` unset)."""
        plan = op.win._call_plan(op)
        if plan is None:
            with self.proc.recording() as recorder:
                self._charge_rma(recorder, op)
                self._rma_facts(op, None)
        self.proc.charge(plan.path)
        return plan

    def _rma_lane(self, op, plan):
        """The hooks of one RMA issue on a rank with a seam: the seam's
        RMA transmit (the fault layer's lossy wire), and the injection
        lane (VCI) the op is tallied on, if the seam routes."""
        hooks = self.proc.hooks
        hooks.rma_transmit(plan.peer_world, op.mpi_name)
        route = hooks.route
        return (None if route is None
                else route(op.win.comm.ctx, op.target_rank, 0))

    # put / get / accumulate each read their planned prologue (plan,
    # byte offset, target size) in place and call their mover by name:
    # a shared helper or a registry is one more Python frame on every
    # warm call.  A put or get of contiguous types (``plan.contig``)
    # is one RDMA store or load into the target's memory; a derived
    # type on either side takes the AM handler, which unpacks at the
    # target.  Native or fallback is a charge (``plan.native``, read
    # by ``issue``), not a data path.

    @fastpath
    def put(self, op: PutOp) -> None:
        """One-sided put: remote write into the target window."""
        plan = op.plan or self._rma_prologue(op)
        if plan.peer_world == PROC_NULL:
            return
        state = plan.state
        offset_bytes = (op.target_disp if op.flags.virtual_addr
                        else op.target_disp * state.disp_unit)
        target_dt = op.target_dtref.datatype

        if plan.contig:
            # The NIC reads the origin where it lies: a C-contiguous
            # array that holds the bytes as it is, any other origin as
            # pack views it — or refuses it, short or strided.
            data, count = op.origin_buf, op.origin_count
            nbytes = count * op.origin_dtref.datatype.size
            if not (type(data) is ndarray and data.flags.c_contiguous
                    and 0 <= count and nbytes <= data.nbytes):
                data = as_bytes(pack(data, count, op.origin_dtref.datatype))
        else:
            data = pack(op.origin_buf, op.origin_count,
                        op.origin_dtref.datatype)
            nbytes = len(data)
        if nbytes != op.target_count * target_dt.size:
            raise am.size_error(op, nbytes)

        vci = self.proc.hooks and self._rma_lane(op, plan)
        result = plan.transport.issue(nbytes, plan.native, vci=vci)
        if vci is not None:
            vci.completion.note("rma", result.arrive_s)
        if plan.contig:
            state.rdma(offset_bytes, nbytes, data, None)
        else:
            am.am_put(state, data, offset_bytes, op.target_count, target_dt)
        pending = op.win._pending
        pending[plan.peer_world] = max(pending.get(plan.peer_world, 0.0),
                                       result.arrive_s)

    @fastpath
    def get(self, op: GetOp) -> None:
        """One-sided get: remote read from the target window."""
        plan = op.plan or self._rma_prologue(op)
        if plan.peer_world == PROC_NULL:
            return
        state = plan.state
        offset_bytes = (op.target_disp if op.flags.virtual_addr
                        else op.target_disp * state.disp_unit)
        target_dt = op.target_dtref.datatype

        count = op.origin_count
        nbytes = count * op.origin_dtref.datatype.size
        if count < 0 or nbytes != op.target_count * target_dt.size:
            raise am.size_error(op, nbytes)

        vci = self.proc.hooks and self._rma_lane(op, plan)
        result = plan.transport.issue(nbytes, plan.native, round_trip=True,
                                      vci=vci)
        if vci is not None:
            vci.completion.note("rma", result.complete_s)
        buf = op.origin_buf
        if plan.contig and type(buf) is ndarray and buf.flags.c_contiguous \
                and buf.flags.writeable and nbytes <= buf.nbytes:
            state.rdma(offset_bytes, nbytes, None, buf)
        else:
            # A derived type, or an origin unpack fills — or refuses.
            data = am.am_get(state, offset_bytes, op.target_count, target_dt)
            unpack(data, buf, count, op.origin_dtref.datatype)
        pending = op.win._pending
        pending[plan.peer_world] = max(pending.get(plan.peer_world, 0.0),
                                       result.complete_s)

    @fastpath
    def accumulate(self, op: AccOp) -> Optional[bytes]:
        """One-sided accumulate (and GET_ACCUMULATE when fetch_buf set)."""
        plan = op.plan or self._rma_prologue(op)
        if plan.peer_world == PROC_NULL:
            return None
        state = plan.state
        offset_bytes = (op.target_disp if op.flags.virtual_addr
                        else op.target_disp * state.disp_unit)

        data = pack(op.origin_buf, op.origin_count, op.origin_dtref.datatype)
        am.check_accumulate(op, len(data))
        vci = self.proc.hooks and self._rma_lane(op, plan)
        round_trip = op.fetch_buf is not None
        result = plan.transport.issue(len(data), plan.native_atomic,
                                      round_trip=round_trip, vci=vci)
        done = result.complete_s if round_trip else result.arrive_s
        if vci is not None:
            vci.completion.note("rma", done)
        before = am.am_accumulate(state, data, offset_bytes, op.target_count,
                                  op.target_dtref.datatype, op.op, round_trip)
        if round_trip:
            unpack(before, op.fetch_buf, op.origin_count,
                   op.origin_dtref.datatype)
        pending = op.win._pending
        pending[plan.peer_world] = max(pending.get(plan.peer_world, 0.0), done)
        return before
