"""Communicators: the user-facing MPI handle.

Two API families, mpi4py-style:

* lowercase (``send``/``recv``/``bcast``/...) move pickled Python
  objects — convenient, slower;
* capitalized (``Send``/``Recv``/``Bcast``/...) move numpy/buffer data
  through the packed fast path.

Plus the paper's Section 3 extension entry points:
``isend_global`` (§3.1), ``dup_predefined`` (§3.3), ``isend_npn``
(§3.4), ``isend_noreq`` + ``waitall_noreq`` (§3.5), ``isend_nomatch``
/ ``recv_nomatch`` (§3.6), and ``isend_all_opts`` (§3.7).
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro.consts import (ANY_SOURCE, ANY_TAG, MAX_PREDEFINED_COMMS,
                          PROC_NULL, UNDEFINED)
from repro.core import extensions as ext
from repro.core.ops import RECV_PLAN, CallPlan, RecvOp, SendOp
from repro.errors import MPIErrArg, MPIErrComm, MPIError
from repro.ft.recovery import ERRORS_ARE_FATAL, dispatch_comm_error
from repro.instrument.categories import Category, Subsystem
from repro.instrument.costs import COSTS
from repro.instrument.fastpath import fastpath
from repro.mpi import collectives as coll
from repro.mpi.group import Group
from repro.mpi.info import Info
from repro.mpi.pt2pt import (BYTE_REF, call_plan, check_recv, check_send,
                             entry_plan, normalize_buffer, run_call)
from repro.mpi.status import Status
from repro.runtime.hooks import blocked_wait
from repro.runtime.ranktrans import build_translation
from repro.runtime.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc


def _charge_waitall_noreq(proc) -> None:
    """What one §3.5 MPI_COMM_WAITALL charges: the bulk completion."""
    proc.charge(Category.MANDATORY, COSTS.noreq_waitall,
                Subsystem.REQUEST_MGMT)


class Communicator:
    """One rank's view of an MPI communicator."""

    def __init__(self, proc: "Proc", group: Group, ctx: int,
                 predefined_handle: bool = False,
                 name: str = "comm", info: Optional[Info] = None):
        self.proc = proc
        self.group = group
        self.ctx = ctx
        self.is_predefined_handle = predefined_handle
        self.name = name
        self.info = info if info is not None else Info()
        self.freed = False
        self.translation = build_translation(
            group.world_ranks, proc.config.rank_translation)
        rank = group.rank_of_world(proc.world_rank)
        if rank == UNDEFINED:
            raise MPIErrComm(
                f"world rank {proc.world_rank} is not in this communicator")
        #: This process's rank in the communicator (MPI_COMM_RANK).
        self.rank = rank
        #: Number of ranks in the communicator (MPI_COMM_SIZE).
        self.size = group.size
        #: Call plans by ``(kind, peer, flags.bits, dtref.key)``: what
        #: each call site on this handle resolved on first use.  A
        #: handle's group, context and translation never change, so a
        #: plan lives as long as the handle.  Racing first-use
        #: compiles are harmless: same key, equal plan.
        self._plans: dict = {}
        #: Buffer-collective plans by call shape (see
        #: :class:`repro.mpi.collectives.CollPlan`), same lifetime.
        self._coll_plans: dict = {}
        # §3.5 requestless-operation bookkeeping (owning thread only).
        self._noreq_count = 0
        self._noreq_latest_s = 0.0
        # Collective-strategy override (None inherits the build's
        # communicator_name) and the lazily-built subcommunicator
        # cache for the topology-aware compositions.
        self.coll_strategy: Optional[str] = None
        self._hier_ctx = None
        # MPI-3.1 default error handler: errors abort the job.  See
        # set_errhandler for the ULFM-style alternatives.
        self._errhandler = ERRORS_ARE_FATAL

    @classmethod
    def world_view(cls, proc: "Proc") -> "Communicator":
        """This rank's MPI_COMM_WORLD."""
        from repro.runtime.world import World
        return cls(proc, Group(range(proc.world.nranks)), World.WORLD_CTX,
                   name="MPI_COMM_WORLD")

    # -- basic queries -----------------------------------------------------

    @property
    def world_size(self) -> int:
        """Size of MPI_COMM_WORLD (for global-rank validation)."""
        return self.proc.world.nranks

    @property
    def is_inter(self) -> bool:
        """MPI_COMM_TEST_INTER: False for intracommunicators."""
        return False

    def split_type_shared(self) -> "Communicator":
        """MPI_COMM_SPLIT_TYPE(MPI_COMM_TYPE_SHARED): the ranks sharing
        this rank's node."""
        from repro.mpi.intercomm import split_type_shared
        return split_type_shared(self)

    def create_intercomm(self, local_leader: int, peer_comm,
                         remote_leader: int, tag: int = 0):
        """MPI_INTERCOMM_CREATE (collective over this communicator)."""
        from repro.mpi.intercomm import intercomm_create
        return intercomm_create(self, local_leader, peer_comm,
                                remote_leader, tag)

    @property
    def world(self):
        """The owning runtime world."""
        return self.proc.world

    def world_rank_of(self, comm_rank: int) -> int:
        """Translate a communicator rank to its MPI_COMM_WORLD rank —
        the MPI_GROUP_TRANSLATE_RANKS step of the §3.1 recipe."""
        return self.translation.world_rank(comm_rank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Communicator({self.name!r}, rank={self.rank}/"
                f"{self.size}, ctx={self.ctx})")

    # ------------------------------------------------------------------ #
    # error handlers (MPI-3.1 §8.3) and fault-tolerant issue paths        #
    # ------------------------------------------------------------------ #

    def set_errhandler(self, handler) -> None:
        """MPI_COMM_SET_ERRHANDLER: *handler* is ``ERRORS_ARE_FATAL``
        (the default — any communication error aborts the whole job),
        ``ERRORS_RETURN`` (errors raise to the caller only), or a
        Python callable ``handler(comm, exc)`` invoked before the
        exception propagates (the MPI_Comm_create_errhandler shape)."""
        self._errhandler = handler

    def get_errhandler(self):
        """MPI_COMM_GET_ERRHANDLER: the current error handler."""
        return self._errhandler

    def _issue(self, body, op):
        """Run the device's *body* on *op*, which no MPI entry wraps (an
        internal message, a persistent start), after a planned *op*'s
        path charge — and, on a build whose seam checks communicators
        (a fault build's), after that ``comm_check``, with the body's
        errors going through this communicator's handler."""
        proc, plan = self.proc, op.plan
        hooks = proc.hooks
        check = None if hooks is None else hooks.comm_check
        if check is not None:
            check(op)
        if plan is not None and plan.path is not None:
            proc.charge(plan.path)
        if check is None:
            return body(op)
        try:
            return body(op)
        except MPIError as exc:
            dispatch_comm_error(self, exc)
            raise

    # ------------------------------------------------------------------ #
    # internal byte-stream primitives (collectives, pickled API)          #
    # ------------------------------------------------------------------ #

    def _isend_bytes(self, data: "bytes | memoryview", dest: int,
                     tag: int, sync: bool = False,
                     flags: ext.ExtFlags = ext.NONE) -> Optional[Request]:
        return self._issue(self.proc.device.isend,
                           self._bytes_op(data, dest, tag, sync, flags))

    def _bytes_op(self, data: "bytes | memoryview", dest: int, tag: int,
                  sync: bool = False, flags: ext.ExtFlags = ext.NONE,
                  blocking: bool = False) -> SendOp:
        """The op of an internal byte-stream send."""
        buf = np.frombuffer(data, np.uint8) if data else np.empty(0, np.uint8)
        return SendOp(buf, len(data), BYTE_REF, dest, tag, self, flags, sync,
                      blocking=blocking)

    def _irecv_bytes(self, source: int, tag: int,
                     into: Optional[memoryview] = None,
                     flags: ext.ExtFlags = ext.NONE) -> Request:
        """Post an internal receive: bufferless (the payload is stashed
        on the request), or into the writable byte view *into*."""
        op = RecvOp(into, 0 if into is None else len(into), BYTE_REF,
                    source, tag, self, flags)
        return self._issue(self.proc.device.irecv, op)

    def _send_bytes(self, data: bytes, dest: int, tag: int) -> None:
        self._end_send(self._issue(
            self.proc.device.isend,
            self._bytes_op(data, dest, tag, blocking=True)))

    def _end_send(self, sent: "Request | float") -> None:
        """Finish a blocking send: a send born complete handed back its
        completion time, merged into the clock as ``wait`` would merge
        its handle's; any other handed back its request, waited on and
        recycled."""
        if isinstance(sent, Request):
            sent.wait()
            self.proc.request_pool.release(sent)
            return
        clock = self.proc.vclock
        if sent > clock.now:
            clock.now = sent   # VClock.merge, inline

    def _recv_bytes(self, source: int, tag: int,
                    into: Optional[memoryview] = None) -> bytes:
        req = self._irecv_bytes(source, tag, into)
        req.wait()
        data = req.payload if req.payload is not None else b""
        self.proc.request_pool.release(req)
        return data

    # ------------------------------------------------------------------ #
    # lowercase: pickled Python objects                                   #
    # ------------------------------------------------------------------ #

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send of a pickled object."""
        self._end_send(self._object_send(obj, dest, tag, sync=False,
                                         blocking=True))

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send of a pickled object."""
        return self._object_send(obj, dest, tag, sync=False)

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking synchronous-mode send (completes on match)."""
        req = self.issend(obj, dest, tag)
        req.wait()
        self.proc.request_pool.release(req)

    def issend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking synchronous-mode send."""
        return self._object_send(obj, dest, tag, sync=True)

    def _object_send(self, obj: Any, dest: int, tag: int, sync: bool,
                     blocking: bool = False) -> "Request | float":
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return self._buffer_send((data, len(data), BYTE_REF), dest, tag,
                                 sync, name="MPI_Issend" if sync
                                 else "MPI_Isend", blocking=blocking)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive of a pickled object."""
        req = self.irecv(source, tag)
        req.wait()
        payload = None if req.source == PROC_NULL else req.payload
        self.proc.request_pool.release(req)
        if payload is None:
            return None
        return pickle.loads(payload)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive of a pickled object; ``request.wait()``
        then ``pickle.loads(request.payload)`` (or use :meth:`recv`)."""
        return self._buffer_recv((None, 0, BYTE_REF), source, tag)

    def sendrecv(self, obj: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (deadlock-free ordering)."""
        rreq = self.irecv(source, recvtag)
        try:
            sent = self._object_send(obj, dest, sendtag, sync=False,
                                     blocking=True)
        except BaseException:
            self._take_back(rreq)
            raise
        self._end_send(sent)
        rreq.wait()
        payload = None if rreq.source == PROC_NULL else rreq.payload
        self.proc.request_pool.release(rreq)
        if payload is None:
            return None
        return pickle.loads(payload)

    # ------------------------------------------------------------------ #
    # capitalized: buffer API                                             #
    # ------------------------------------------------------------------ #

    def Send(self, buf, dest: int, tag: int = 0) -> None:
        """Blocking buffer send; *buf* is an ndarray or (buf, count,
        datatype) tuple.  Charged as an MPI_ISEND; a send born complete
        makes no request (:meth:`_end_send`)."""
        self._end_send(self._buffer_send(buf, dest, tag, sync=False,
                                         blocking=True))

    def Isend(self, buf, dest: int, tag: int = 0) -> Request:
        """Nonblocking buffer send — the paper's measured MPI_ISEND path."""
        return self._buffer_send(buf, dest, tag, sync=False)

    def Ssend(self, buf, dest: int, tag: int = 0) -> None:
        """Blocking synchronous buffer send."""
        req = self.Issend(buf, dest, tag)
        req.wait()
        self.proc.request_pool.release(req)

    def Issend(self, buf, dest: int, tag: int = 0) -> Request:
        """Nonblocking synchronous buffer send."""
        return self._buffer_send(buf, dest, tag, sync=True)

    def _call_plan(self, op, kind, peer: int) -> Optional[CallPlan]:
        """The plan of the call site ``(kind, peer, op.flags,
        op.dtref's class)`` — *kind* a send's ``sync`` flag, or
        ``RECV_PLAN`` — resolved on its first use: the device's share
        (path charges, translated peer, transport), completed by the
        MPI layer's (entry and argument-check charges, the CS lock and
        stream, all three fused).  None — and nothing cached — when
        the site raises in the device (see ``pt2pt_plan``)."""
        key = (kind, peer, op.flags.bits, op.dtref.key)
        plan = self._plans.get(key)
        if plan is None:
            proc, c = self.proc, COSTS
            plan = proc.device.pt2pt_plan(op, peer, kind == RECV_PLAN)
            if plan is not None:
                self._plans[key] = call_plan(
                    proc, c.isend_function_call, c.isend_thread_check,
                    c.isend_error, plan, (self.ctx, peer, op.flags.nomatch))
        return plan

    def _entry_plan(self, op, peer: int) -> CallPlan:
        """The plan of a send or receive whose site has none (a failing
        check, a site that raises in the device)."""
        c = COSTS
        return entry_plan(self.proc, c.isend_function_call,
                          c.isend_thread_check, c.isend_error,
                          (self.ctx, peer, op.flags.nomatch))

    def _buffer_send(self, buf, dest: int, tag: int, sync: bool,
                     flags: ext.ExtFlags = ext.NONE,
                     name: str = "MPI_Isend",
                     blocking: bool = False) -> "Request | float | None":
        proc = self.proc
        data, count, dtref = normalize_buffer(buf)
        op = SendOp(data, count, dtref, dest, tag, self, flags, sync,
                    blocking=blocking)
        failed = plan = None
        if proc.config.error_checking:
            failed = check_send(self, data, count, dtref, dest, tag,
                                flags.global_rank)
        if failed is None:
            plan = (self._plans.get((sync, dest, flags.bits, dtref.key))
                    or self._call_plan(op, sync, dest))   # first use
        return run_call(proc, plan or self._entry_plan(op, dest), name,
                        proc.device.isend, op, failed)

    def Recv(self, buf, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Status:
        """Blocking buffer receive; returns the :class:`Status`."""
        req = self.Irecv(buf, source, tag)
        req.wait()
        status = Status.from_request(req)
        self.proc.request_pool.release(req)
        return status

    def Irecv(self, buf, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        """Nonblocking buffer receive."""
        return self._buffer_recv(buf, source, tag)

    def _buffer_recv(self, buf, source: int, tag: int,
                     flags: ext.ExtFlags = ext.NONE) -> Request:
        proc = self.proc
        data, count, dtref = normalize_buffer(buf)
        op = RecvOp(data, count, dtref, source, tag, self, flags)
        failed = plan = None
        if proc.config.error_checking:
            failed = check_recv(self, count, dtref, source, tag)
        if failed is None:
            plan = (self._plans.get((RECV_PLAN, source, flags.bits,
                                     dtref.key))
                    or self._call_plan(op, RECV_PLAN, source))
        return run_call(proc, plan or self._entry_plan(op, source),
                        "MPI_Irecv", proc.device.irecv, op, failed)

    def _take_back(self, rreq: Request) -> None:
        """The send half of a sendrecv failed: withdraw the receive
        posted for it, so no later message is scattered into a buffer
        the caller was told nothing about, and recycle its handle."""
        if self.proc.engine.cancel_posted(rreq) or rreq.is_complete():
            self.proc.request_pool.release(rreq)

    def Sendrecv(self, sendbuf, dest: int, recvbuf, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Status:
        """Combined buffer send+receive."""
        rreq = self.Irecv(recvbuf, source, recvtag)
        try:
            sent = self._buffer_send(sendbuf, dest, sendtag, sync=False,
                                     blocking=True)
        except BaseException:
            self._take_back(rreq)
            raise
        self._end_send(sent)
        rreq.wait()
        status = Status.from_request(rreq)
        self.proc.request_pool.release(rreq)
        return status

    # -- persistent operations ---------------------------------------------------

    def Send_init(self, buf, dest: int, tag: int = 0):
        """MPI_SEND_INIT: build a persistent send (validate and resolve
        once, ``start()`` each iteration)."""
        from repro.mpi.persist import PersistentSend
        return PersistentSend(self, buf, dest, tag)

    def Recv_init(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """MPI_RECV_INIT: build a persistent receive."""
        from repro.mpi.persist import PersistentRecv
        return PersistentRecv(self, buf, source, tag)

    # -- nonblocking collectives -----------------------------------------------

    def ibarrier(self):
        """MPI_IBARRIER; drive with ``request.test()``/``wait()``."""
        from repro.mpi import nbc
        return nbc.ibarrier(self)

    def ibcast(self, obj: Any = None, root: int = 0):
        """MPI_IBCAST of a pickled object; ``request.result`` holds the
        payload after completion."""
        from repro.mpi import nbc
        return nbc.ibcast(self, obj, root)

    def iallreduce(self, obj: Any, op=None):
        """MPI_IALLREDUCE of pickled objects."""
        from repro.mpi import nbc
        return nbc.iallreduce(self, obj, op)

    def iallgather(self, obj: Any):
        """MPI_IALLGATHER of pickled objects."""
        from repro.mpi import nbc
        return nbc.iallgather(self, obj)

    def igather(self, obj: Any, root: int = 0):
        """MPI_IGATHER of pickled objects."""
        from repro.mpi import nbc
        return nbc.igather(self, obj, root)

    def iscatter(self, objs: Optional[Sequence] = None, root: int = 0):
        """MPI_ISCATTER of pickled objects."""
        from repro.mpi import nbc
        return nbc.iscatter(self, list(objs) if objs is not None
                            else None, root)

    # -- topology ------------------------------------------------------------------

    def create_cart(self, dims: Sequence[int], periods: Sequence[bool],
                    reorder: bool = False):
        """MPI_CART_CREATE: a Cartesian-topology communicator (None on
        ranks beyond the grid)."""
        from repro.mpi.cart import cart_create
        return cart_create(self, dims, periods, reorder)

    # -- probing -------------------------------------------------------------

    def probe(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Status:
        """Blocking MPI_PROBE: status of the next matching message.

        A blocked wait like any other (the seam's ``wait_enter``): the
        sanitizer's OR-wait edge (concrete only for a concrete source)
        covers probe loops."""
        with blocked_wait(self.proc.hooks, "probe",
                          probe=(self, source, tag)):
            env, nbytes = self.proc.engine.probe(
                self.ctx, source, tag, abort_event=self.world.abort_event)
        return Status(source=env.src, tag=env.tag, count_bytes=nbytes)

    def iprobe(self, source: int = ANY_SOURCE,
               tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking MPI_IPROBE."""
        hit = self.proc.engine.iprobe(self.ctx, source, tag)
        if hit is None:
            return None
        env, nbytes = hit
        return Status(source=env.src, tag=env.tag, count_bytes=nbytes)

    # ------------------------------------------------------------------ #
    # Section 3 extension entry points                                    #
    # ------------------------------------------------------------------ #

    def isend_global(self, buf, dest_world: int, tag: int = 0) -> Request:
        """§3.1 MPI_ISEND_GLOBAL: *dest_world* is an MPI_COMM_WORLD rank
        (pre-translated via ``group.translate_ranks``); the context
        isolation is still this communicator's.  Not valid across
        different worlds (not "intercommunicator-safe")."""
        return self._buffer_send(buf, dest_world, tag, sync=False,
                                 flags=ext.GLOBAL_RANK)

    def isend_npn(self, buf, dest: int, tag: int = 0) -> Request:
        """§3.4 MPI_ISEND_NPN: the caller guarantees *dest* is not
        MPI_PROC_NULL."""
        return self._buffer_send(buf, dest, tag, sync=False,
                                 flags=ext.NO_PROC_NULL)

    def isend_noreq(self, buf, dest: int, tag: int = 0) -> None:
        """§3.5 MPI_ISEND_NOREQ: no request returned; complete in bulk
        with :meth:`waitall_noreq`."""
        self._buffer_send(buf, dest, tag, sync=False, flags=ext.NOREQ)

    def isend_nomatch(self, buf, dest: int, tag: int = 0) -> Request:
        """§3.6 MPI_ISEND_NOMATCH: no source/tag match bits; the message
        matches a ``recv_nomatch`` in arrival order within this
        communicator."""
        return self._buffer_send(buf, dest, tag, sync=False,
                                 flags=ext.NOMATCH)

    def isend_all_opts(self, buf, dest_world: int, tag: int = 0) -> None:
        """§3.7 MPI_ISEND_ALL_OPTS: every proposal at once — global
        rank, static handle, no PROC_NULL, no request, no match bits.
        The paper's 16-instruction path."""
        self._buffer_send(buf, dest_world, tag, sync=False,
                          flags=ext.ALL_OPTS_PT2PT)

    def irecv_nomatch(self, buf) -> Request:
        """Arrival-order receive matching ``isend_nomatch`` senders."""
        return self._buffer_recv(buf, ANY_SOURCE, ANY_TAG,
                                 flags=ext.NOMATCH)

    def recv_nomatch(self, buf) -> Status:
        """Blocking arrival-order receive (see :meth:`irecv_nomatch`)."""
        req = self.irecv_nomatch(buf)
        req.wait()
        status = Status.from_request(req)
        self.proc.request_pool.release(req)
        return status

    def irecv_all_opts(self, buf) -> Request:
        """Receive counterpart used with :meth:`isend_all_opts` streams
        (arrival-order matching; a request IS returned — the receive
        side must deliver data somewhere)."""
        return self._buffer_recv(buf, ANY_SOURCE, ANY_TAG,
                                 flags=ext.ALL_OPTS_RECV)

    # -- §3.5 bulk completion ---------------------------------------------------

    def note_noreq_issue(self, complete_s: float) -> None:
        """Device callback: one requestless operation issued (owning
        thread only — no locking needed)."""
        self._noreq_count += 1
        if complete_s > self._noreq_latest_s:
            self._noreq_latest_s = complete_s

    @property
    def noreq_pending(self) -> int:
        """Requestless operations issued since the last waitall_noreq."""
        return self._noreq_count

    @fastpath
    def waitall_noreq(self) -> int:
        """§3.5 MPI_COMM_WAITALL: complete every requestless operation
        on this communicator; returns how many were completed."""
        proc = self.proc
        proc.charge(proc.plan("waitall_noreq", _charge_waitall_noreq))
        proc.vclock.merge(self._noreq_latest_s)
        done = self._noreq_count
        self._noreq_count = 0
        self._noreq_latest_s = 0.0
        return done

    # ------------------------------------------------------------------ #
    # collectives (delegating to repro.mpi.collectives)                   #
    # ------------------------------------------------------------------ #

    def collective_strategy(self) -> str:
        """The effective collective strategy: this communicator's
        override (set by :func:`repro.mpi.hier.create_communicator`)
        or the build's ``communicator_name``."""
        return self.coll_strategy or self.proc.config.communicator_name

    def barrier(self) -> None:
        """MPI_BARRIER (dissemination algorithm)."""
        coll.barrier(self)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """MPI_BCAST of a pickled object (binomial tree)."""
        return coll.bcast_obj(self, obj, root)

    def reduce(self, obj: Any, op=None, root: int = 0) -> Any:
        """MPI_REDUCE of pickled objects; *op* is a
        :class:`repro.mpi.reduceops.Op` (default SUM)."""
        return coll.reduce_obj(self, obj, op, root)

    def allreduce(self, obj: Any, op=None) -> Any:
        """MPI_ALLREDUCE of pickled objects."""
        return coll.allreduce_obj(self, obj, op)

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        """MPI_GATHER of pickled objects (linear: the root receives
        P-1 messages in rank order)."""
        return coll.gather_obj(self, obj, root)

    def allgather(self, obj: Any) -> list:
        """MPI_ALLGATHER of pickled objects (ring)."""
        return coll.allgather_obj(self, obj)

    def scatter(self, objs: Optional[Sequence], root: int = 0) -> Any:
        """MPI_SCATTER of pickled objects."""
        return coll.scatter_obj(self, objs, root)

    def alltoall(self, objs: Sequence) -> list:
        """MPI_ALLTOALL of pickled objects (pairwise exchange)."""
        return coll.alltoall_obj(self, objs)

    def scan(self, obj: Any, op=None) -> Any:
        """MPI_SCAN (inclusive prefix reduction)."""
        return coll.scan_obj(self, obj, op)

    def exscan(self, obj: Any, op=None) -> Any:
        """MPI_EXSCAN (exclusive prefix; None on rank 0)."""
        return coll.exscan_obj(self, obj, op)

    def reduce_scatter_block(self, objs: Sequence, op=None) -> Any:
        """MPI_REDUCE_SCATTER_BLOCK over pickled objects."""
        return coll.reduce_scatter_block_obj(self, objs, op)

    def Bcast(self, array: np.ndarray, root: int = 0,
              algorithm: Optional[str] = None) -> None:
        """MPI_BCAST of a numpy buffer, in place (binomial for small
        payloads, van-de-Geijn scatter+allgather for large; ``"ring"``
        selects the pipelined chain).  An explicit *algorithm* always
        forces the flat schedule; otherwise the communicator's
        strategy (``communicator_name``) may route through the
        topology-aware composition (:mod:`repro.mpi.hier`)."""
        coll.bcast_buf(self, array, root, algorithm, routed=True)

    def Gather(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
               root: int = 0) -> None:
        """MPI_GATHER of equal-size numpy blocks."""
        coll.gather_buf(self, sendbuf, recvbuf, root)

    def Scatter(self, sendbuf: Optional[np.ndarray], recvbuf: np.ndarray,
                root: int = 0) -> None:
        """MPI_SCATTER of equal-size numpy blocks."""
        coll.scatter_buf(self, sendbuf, recvbuf, root)

    def Reduce_scatter_block(self, sendbuf: np.ndarray,
                             recvbuf: np.ndarray, op=None) -> None:
        """MPI_REDUCE_SCATTER_BLOCK of numpy buffers."""
        coll.reduce_scatter_block_buf(self, sendbuf, recvbuf, op)

    def Scan(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
             op=None) -> None:
        """MPI_SCAN of numpy buffers."""
        coll.scan_buf(self, sendbuf, recvbuf, op)

    def Reduce(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray],
               op=None, root: int = 0) -> None:
        """MPI_REDUCE of numpy buffers into *recvbuf* at root (the
        communicator's strategy may route through the leader
        composition, :mod:`repro.mpi.hier`)."""
        coll.reduce_buf(self, sendbuf, recvbuf, op, root, routed=True)

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op=None, algorithm: Optional[str] = None) -> None:
        """MPI_ALLREDUCE of numpy buffers (recursive doubling for
        small payloads, reduce+bcast for large; *algorithm* forces
        ``"recursive_doubling"``, ``"reduce_bcast"``, ``"ring"``, or
        ``"reduce_scatter_allgather"``).  Without an explicit
        *algorithm*, the communicator's strategy
        (``communicator_name``) may route through the hierarchical or
        two-dimensional composition (:mod:`repro.mpi.hier`)."""
        coll.allreduce_buf(self, sendbuf, recvbuf, op, algorithm,
                           routed=True)

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        """MPI_ALLGATHER of equal-size numpy blocks (ring)."""
        coll.allgather_buf(self, sendbuf, recvbuf)

    def Alltoall(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        """MPI_ALLTOALL of equal-size numpy blocks (pairwise)."""
        coll.alltoall_buf(self, sendbuf, recvbuf)

    # ------------------------------------------------------------------ #
    # communicator management                                             #
    # ------------------------------------------------------------------ #

    def _agree_ctx(self) -> int:
        """Collectively agree on a fresh context id (rank 0 allocates)."""
        val = self.world.alloc_context_id() if self.rank == 0 else None
        return coll.bcast_obj(self, val, 0)

    def dup(self, name: Optional[str] = None) -> "Communicator":
        """MPI_COMM_DUP: same group, fresh context."""
        ctx = self._agree_ctx()
        return Communicator(self.proc, self.group, ctx,
                            name=name or f"{self.name}+dup",
                            info=self.info.dup())

    def dup_predefined(self, handle: int) -> "Communicator":
        """§3.3 MPI_COMM_DUP_PREDEFINED: populate one of the precreated
        communicator handles (``MPI_COMM_1`` ... ``MPI_COMM_
        {MAX_PREDEFINED_COMMS}``); object lookups on the result are
        static-index loads."""
        if not 0 <= handle < MAX_PREDEFINED_COMMS:
            raise MPIErrArg(
                f"predefined handle {handle} outside "
                f"[0, {MAX_PREDEFINED_COMMS})")
        ctx = self._agree_ctx()
        return Communicator(self.proc, self.group, ctx,
                            predefined_handle=True,
                            name=f"MPI_COMM_{handle + 1}")

    def split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """MPI_COMM_SPLIT: partition by *color*, order by (key, rank).

        Returns None for color == UNDEFINED."""
        entries = coll.allgather_obj(
            self, (color, key, self.rank, self.proc.world_rank))
        my_colors = sorted({c for c, _, _, _ in entries if c != UNDEFINED})
        # One fresh context per color, agreed collectively.
        ctxs = None
        if self.rank == 0:
            ctxs = {c: self.world.alloc_context_id() for c in my_colors}
        ctxs = coll.bcast_obj(self, ctxs, 0)
        if color == UNDEFINED:
            return None
        members = sorted(((k, r, wr) for c, k, r, wr in entries
                          if c == color))
        new_group = Group(wr for _, _, wr in members)
        return Communicator(self.proc, new_group, ctxs[color],
                            name=f"{self.name}.split({color})")

    def create(self, group: Group) -> Optional["Communicator"]:
        """MPI_COMM_CREATE: new communicator over *group* (collective
        over this communicator; ranks outside *group* get None)."""
        ctx = self._agree_ctx()
        if self.proc.world_rank not in group:
            return None
        return Communicator(self.proc, group, ctx,
                            name=f"{self.name}.create")

    def free(self) -> None:
        """MPI_COMM_FREE: mark the handle unusable."""
        if self.ctx == 0:
            raise MPIErrComm("cannot free MPI_COMM_WORLD")
        self.freed = True
        self._coll_plans.clear()
