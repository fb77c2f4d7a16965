"""One-sided communication: MPI windows (MPI_WIN_*).

Implements the window flavors the paper's Section 3.2 contrasts:

* **created/allocated windows** — target locations are *offsets* from
  the window base, which the implementation must translate to virtual
  addresses on every operation (the 3–4 instructions the
  ``put_virtual_addr`` proposal removes);
* **dynamic windows** — operations address attached regions by virtual
  address directly, but the window-kind check the implementation still
  performs "costs nearly the same number of instructions ... washing
  out any potential benefit";
* the proposed ``put_virtual_addr`` / ``get_virtual_addr`` routines —
  usable on *all* window kinds, with the address pre-resolved via
  :meth:`Window.remote_addr`.

Synchronization: fence (active), lock/unlock + flush (passive, with a
real reader/writer lock per target), lock_all/unlock_all.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.consts import PROC_NULL
from repro.core import extensions as ext
from repro.core.ops import AccOp, CallPlan, GetOp, PutOp
from repro.errors import (MPIErrArg, MPIErrCount, MPIErrDatatype,
                          MPIErrRank, MPIErrRMARange, MPIErrRMASync,
                          MPIErrWin)
from repro.instrument.costs import COSTS
from repro.mpi import reduceops
from repro.mpi.info import Info
from repro.mpi.pt2pt import (call_plan, entry_plan, mpi_entry,
                             normalize_buffer, run_planned, validate_args)
from repro.runtime.hooks import blocked_wait

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator

#: MPI_LOCK_EXCLUSIVE / MPI_LOCK_SHARED.
LOCK_EXCLUSIVE = "exclusive"
LOCK_SHARED = "shared"


class RWLock:
    """A reader/writer lock for passive-target epochs.

    Shared locks (concurrent readers/accumulators) may coexist;
    an exclusive lock excludes everything.  Fair enough for tests:
    writers wait for readers to drain and vice versa.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    def acquire(self, lock_type: str, abort_event=None) -> None:
        """Acquire in *lock_type* mode, interruptible by the abort event.

        The waiter subscribes a wake listener and blocks without a
        timeout — a world abort interrupts it immediately.  (Plain
        ``threading.Event`` abort flags are bridged by the
        foreign-event watcher; no slice polling remains.)
        """
        from repro.runtime.completion import (add_abort_listener,
                                              remove_abort_listener)

        def wake() -> None:
            with self._cond:
                self._cond.notify_all()

        listening = (abort_event is not None
                     and add_abort_listener(abort_event, wake))
        try:
            with self._cond:
                while True:
                    if abort_event is not None and abort_event.is_set():
                        from repro.runtime.world import WorldAborted
                        raise WorldAborted("world aborted acquiring win lock")
                    if lock_type == LOCK_SHARED and not self._writer:
                        self._readers += 1
                        return
                    if (lock_type == LOCK_EXCLUSIVE and not self._writer
                            and self._readers == 0):
                        self._writer = True
                        return
                    self._cond.wait()
        finally:
            if listening:
                remove_abort_listener(abort_event, wake)

    def release(self, lock_type: str) -> None:
        """Release a previously acquired mode."""
        with self._cond:
            if lock_type == LOCK_SHARED:
                if self._readers <= 0:
                    raise MPIErrRMASync("shared unlock without lock")
                self._readers -= 1
            else:
                if not self._writer:
                    raise MPIErrRMASync("exclusive unlock without lock")
                self._writer = False
            self._cond.notify_all()


class WindowState:
    """One rank's exposed memory (shared via the world registry).

    Created/allocated windows expose a single buffer; dynamic windows
    hold attached regions addressed by simulated virtual addresses.
    """

    #: Simulated VM page size used to place attached regions.
    PAGE = 4096

    def __init__(self, buffer: Optional[np.ndarray], disp_unit: int,
                 dynamic: bool = False):
        if disp_unit <= 0:
            raise MPIErrArg(f"disp_unit must be positive, got {disp_unit}")
        self.disp_unit = disp_unit
        self.dynamic = dynamic
        self.data_lock = threading.RLock()
        self.epoch_lock = RWLock()
        if dynamic:
            if buffer is not None:
                raise MPIErrWin("dynamic windows start with no memory")
            self._regions: list[tuple[int, np.ndarray]] = []
            self._next_base = self.PAGE
            self._buffer = None
        else:
            if buffer is None:
                buffer = np.empty(0, dtype=np.uint8)
            # Windows alias the user's array for their whole lifetime —
            # that is MPI_WIN_CREATE's contract, not a leaked borrow.
            self._buffer = buffer.view(np.uint8).reshape(-1)  # bufcheck: ignore[BC503]

    @property
    def nbytes(self) -> int:
        """Exposed bytes (sum of regions for dynamic windows)."""
        if self.dynamic:
            return sum(arr.size for _, arr in self._regions)
        return self._buffer.size

    # -- dynamic-window attach/detach ---------------------------------------

    def attach(self, array: np.ndarray) -> int:
        """MPI_WIN_ATTACH: expose *array*; returns its simulated virtual
        base address (what MPI_GET_ADDRESS would produce)."""
        if not self.dynamic:
            raise MPIErrWin("attach is only valid on dynamic windows")
        view = array.view(np.uint8).reshape(-1)
        base = self._next_base
        npages = -(-view.size // self.PAGE) + 1
        self._next_base += npages * self.PAGE
        self._regions.append((base, view))
        return base

    def detach(self, base: int) -> None:
        """MPI_WIN_DETACH by base address."""
        if not self.dynamic:
            raise MPIErrWin("detach is only valid on dynamic windows")
        for i, (b, _) in enumerate(self._regions):
            if b == base:
                del self._regions[i]
                return
        raise MPIErrWin(f"no attached region at address {base}")

    # -- the accessor the AM handlers use -------------------------------------

    def view(self, offset_bytes: int, count: int, datatype) -> np.ndarray:
        """Writable byte view of the span *count* elements of
        *datatype* occupy from *offset_bytes* in the exposed memory —
        ``[offset, offset + span)``; raises :class:`MPIErrRMARange`
        outside it."""
        # The span is pack's ``_required_span``, read without a frame.
        span_bytes = ((count - 1) * datatype.extent + datatype.typemap.ub
                      if count else 0)
        if span_bytes < 0 or offset_bytes < 0:
            raise MPIErrRMARange(
                f"negative window access: offset={offset_bytes}, "
                f"span={span_bytes}")
        if self.dynamic:
            for base, arr in self._regions:
                if base <= offset_bytes and \
                        offset_bytes + span_bytes <= base + arr.size:
                    lo = offset_bytes - base
                    return arr[lo:lo + span_bytes]
            raise MPIErrRMARange(
                f"address [{offset_bytes}, {offset_bytes + span_bytes}) "
                "is not within any attached region")
        if offset_bytes + span_bytes > self._buffer.size:
            raise MPIErrRMARange(
                f"access [{offset_bytes}, {offset_bytes + span_bytes}) "
                f"outside window of {self._buffer.size} bytes")
        return self._buffer[offset_bytes:offset_bytes + span_bytes]


class Window:
    """One rank's handle on a window (MPI_Win)."""

    def __init__(self, comm: "Communicator", win_id: int,
                 state: WindowState, predefined_handle: bool = False,
                 info: Optional[Info] = None, name: str = "win"):
        self.comm = comm
        self.proc = comm.proc
        self.win_id = win_id
        self.local_state = state
        self.is_predefined_handle = predefined_handle
        self.info = info if info is not None else Info()
        self.name = name
        self.freed = False
        #: Call plans by ``(target rank, flags.bits, origin dtref.key,
        #: target dtref.key)`` (see ``Communicator._plans``).
        self._plans: dict = {}
        #: The latest pending remote-completion time per target world
        #: rank: raised by the device that issues an operation, drained
        #: by flush/fence/unlock.
        self._pending: dict[int, float] = {}
        self._held_locks: dict[int, str] = {}

    # -- creation (collective) ------------------------------------------------

    @classmethod
    def create(cls, comm: "Communicator", array: Optional[np.ndarray],
               disp_unit: int = 1, predefined_handle: bool = False,
               info: Optional[Info] = None) -> "Window":
        """MPI_WIN_CREATE over an existing local *array* (or None for a
        zero-size contribution)."""
        state = WindowState(array, disp_unit)
        return cls._register(comm, state, predefined_handle, info,
                             "win.create")

    @classmethod
    def allocate(cls, comm: "Communicator", nbytes: int,
                 disp_unit: int = 1, predefined_handle: bool = False,
                 info: Optional[Info] = None
                 ) -> tuple["Window", np.ndarray]:
        """MPI_WIN_ALLOCATE: the window provides the memory."""
        if nbytes < 0:
            raise MPIErrArg(f"window size must be >= 0, got {nbytes}")
        array = np.zeros(nbytes, dtype=np.uint8)
        win = cls.create(comm, array, disp_unit, predefined_handle, info)
        return win, array

    @classmethod
    def create_dynamic(cls, comm: "Communicator",
                       info: Optional[Info] = None) -> "Window":
        """MPI_WIN_CREATE_DYNAMIC: no memory yet; attach regions later."""
        state = WindowState(None, 1, dynamic=True)
        return cls._register(comm, state, False, info, "win.dynamic")

    @classmethod
    def _register(cls, comm: "Communicator", state: WindowState,
                  predefined_handle: bool, info: Optional[Info],
                  name: str) -> "Window":
        world = comm.world
        win_id = comm.bcast(
            world.alloc_window_id() if comm.rank == 0 else None, root=0)
        with world._win_lock:
            world.windows.setdefault(win_id, {})[comm.proc.world_rank] = state
        comm.barrier()   # every rank's state registered before first use
        return cls(comm, win_id, state, predefined_handle, info, name)

    # -- registry access -------------------------------------------------------

    def state_of(self, target_world_rank: int) -> WindowState:
        """The target rank's exposed-memory state."""
        try:
            return self.comm.world.windows[self.win_id][target_world_rank]
        except KeyError:
            raise MPIErrWin(
                f"world rank {target_world_rank} holds no state for "
                f"window {self.win_id}") from None

    def remote_addr(self, target_rank: int, disp: int = 0) -> int:
        """Pre-resolve a target location to a virtual address for the
        §3.2 ``*_virtual_addr`` fast path.  For created/allocated
        windows this is the byte offset ``disp * disp_unit``; the
        caller stores it once (the paper's "application keeps track of
        the remote virtual address" pattern)."""
        target_world = self.comm.world_rank_of(target_rank)
        return disp * self.state_of(target_world).disp_unit

    # -- communication operations ----------------------------------------------

    @staticmethod
    def _normalize_target(target: tuple):
        """An explicit target ``(count, datatype)``, the datatype
        classified (the default target, the origin's, needs no call)."""
        t_count, t_dt = target
        from repro.datatypes.usage import classify, DatatypeRef
        t_ref = t_dt if isinstance(t_dt, DatatypeRef) else classify(t_dt)
        return t_count, t_ref

    def _call_plan(self, op) -> Optional[CallPlan]:
        """The plan of *op*'s call site — target rank, flags, origin
        and target datatype class — resolved on its first use (see
        ``Communicator._call_plan``); None, and nothing cached, for an
        MPI_PROC_NULL target."""
        key = (op.target_rank, op.flags.bits, op.origin_dtref.key,
               op.target_dtref.key)
        plan = self._plans.get(key)
        if plan is None:
            proc, c = self.proc, COSTS
            plan = proc.device.rma_plan(op)
            if plan is not None:
                self._plans[key] = call_plan(
                    proc, c.put_function_call, c.put_thread_check,
                    c.put_error, plan)
        return plan

    def _run(self, op, name: str, body) -> None:
        """The MPI layer's share of one put/get/accumulate around the
        device's ``body(op)``: check the arguments, then run planned —
        an unarmed rank on the straight line — or enter stepwise: the
        entry's charge, the checks that ran (a failing one raises from
        inside the entry), the sanitizer's look at the access, and a
        device that charges its own path."""
        proc, c = self.proc, COSTS
        failed = plan = None
        if proc.config.error_checking:
            failed = self._check_rma(op.origin_count, op.origin_dtref,
                                     op.target_rank, op.flags.global_rank)
        if failed is None:
            plan = (self._plans.get((op.target_rank, op.flags.bits,
                                     op.origin_dtref.key,
                                     op.target_dtref.key))
                    or self._call_plan(op))   # first use
            if plan is not None and not proc.armed:
                run_planned(proc, plan, name, body, op)
                return
        with mpi_entry(
                proc, plan
                or entry_plan(proc, c.put_function_call, c.put_thread_check),
                name, proc.vci_for(self.comm.ctx, op.target_rank, 0)
                if proc.num_vcis > 1 else None):
            if proc.config.error_checking:
                validate_args(proc, c.put_error, failed)
            hooks = proc.hooks
            if hooks is not None and op.target_rank != PROC_NULL:
                hooks.rma_check(self, op.target_rank)   # MSD204 epochs
            body(op)

    def put(self, origin, target_rank: int, target_disp: int = 0,
            target: Optional[tuple] = None,
            flags: ext.ExtFlags = ext.NONE) -> None:
        """MPI_PUT: write *origin* into the target window at
        *target_disp* (element offset scaled by the target's
        disp_unit).  *target* optionally overrides the target (count,
        datatype)."""
        buf, count, dtref = normalize_buffer(origin)
        t_count, t_ref = (count, dtref) if target is None \
            else self._normalize_target(target)
        self._run(PutOp(buf, count, dtref, target_rank, target_disp, t_count,
                        t_ref, self, flags), "MPI_Put", self.proc.device.put)

    def get(self, origin, target_rank: int, target_disp: int = 0,
            target: Optional[tuple] = None,
            flags: ext.ExtFlags = ext.NONE) -> None:
        """MPI_GET: read the target window into *origin*."""
        buf, count, dtref = normalize_buffer(origin)
        t_count, t_ref = (count, dtref) if target is None \
            else self._normalize_target(target)
        self._run(GetOp(buf, count, dtref, target_rank, target_disp, t_count,
                        t_ref, self, flags), "MPI_Get", self.proc.device.get)

    def accumulate(self, origin, target_rank: int, target_disp: int = 0,
                   op: reduceops.Op = reduceops.SUM,
                   target: Optional[tuple] = None,
                   flags: ext.ExtFlags = ext.NONE) -> None:
        """MPI_ACCUMULATE: elementwise ``target = op(origin, target)``."""
        buf, count, dtref = normalize_buffer(origin)
        t_count, t_ref = (count, dtref) if target is None \
            else self._normalize_target(target)
        self._run(AccOp(buf, count, dtref, target_rank, target_disp, t_count,
                        t_ref, self, op, flags),
                  "MPI_Accumulate", self.proc.device.accumulate)

    def get_accumulate(self, origin, result: np.ndarray, target_rank: int,
                       target_disp: int = 0,
                       op: reduceops.Op = reduceops.SUM,
                       target: Optional[tuple] = None,
                       flags: ext.ExtFlags = ext.NONE) -> None:
        """MPI_GET_ACCUMULATE: fetch the old target value into *result*
        and apply *op* atomically.  *target* optionally overrides the
        target (count, datatype); *result* takes the origin's."""
        buf, count, dtref = normalize_buffer(origin)
        t_count, t_ref = (count, dtref) if target is None \
            else self._normalize_target(target)
        self._run(AccOp(buf, count, dtref, target_rank, target_disp, t_count,
                        t_ref, self, op, flags, result, "MPI_Get_accumulate"),
                  "MPI_Get_accumulate", self.proc.device.accumulate)

    def fetch_and_op(self, origin, result: np.ndarray, target_rank: int,
                     target_disp: int = 0,
                     op: reduceops.Op = reduceops.SUM) -> None:
        """MPI_FETCH_AND_OP: single-element get_accumulate."""
        self.get_accumulate(origin, result, target_rank, target_disp, op)

    def compare_and_swap(self, origin: np.ndarray, compare: np.ndarray,
                         result: np.ndarray, target_rank: int,
                         target_disp: int = 0) -> None:
        """MPI_COMPARE_AND_SWAP of one element."""
        proc, c = self.proc, COSTS
        buf, count, dtref = normalize_buffer(origin)
        if count != 1:
            raise MPIErrArg("compare_and_swap operates on one element")
        with mpi_entry(proc, entry_plan(proc, c.put_function_call,
                                        c.put_thread_check),
                       "MPI_Compare_and_swap",
                       proc.vci_for(self.comm.ctx, target_rank, 0)):
            if proc.config.error_checking:
                validate_args(proc, c.put_error, self._check_rma(
                    count, dtref, target_rank, False))
            hooks = proc.hooks
            if hooks is not None and target_rank != PROC_NULL:
                hooks.rma_check(self, target_rank)
            if dtref.datatype.np_dtype is None:
                raise MPIErrDatatype(
                    "compare_and_swap requires a predefined datatype")
            target_world = self.comm.world_rank_of(target_rank)
            state = self.state_of(target_world)
            from repro.core import am
            from repro.datatypes.pack import pack, unpack
            transport = proc.device._transport_for(target_world)
            res = transport.issue(dtref.datatype.size, native=True,
                                  round_trip=True)
            old = am.am_compare_and_swap(
                state, pack(compare, 1, dtref.datatype),
                pack(buf, 1, dtref.datatype),
                target_disp * state.disp_unit, dtref.datatype)
            unpack(old, result, 1, dtref.datatype)
            pending = self._pending
            pending[target_world] = max(pending.get(target_world, 0.0),
                                        res.complete_s)

    # -- §3.2 extension entry points --------------------------------------------

    def put_virtual_addr(self, origin, target_rank: int, vaddr: int,
                         target: Optional[tuple] = None) -> None:
        """§3.2 MPI_PUT_VIRTUAL_ADDR: *vaddr* is a pre-resolved virtual
        address from :meth:`remote_addr` (or an attach base plus
        offset).  Valid on every window kind."""
        self.put(origin, target_rank, vaddr, target,
                 flags=ext.VIRTUAL_ADDR)

    def get_virtual_addr(self, origin, target_rank: int, vaddr: int,
                         target: Optional[tuple] = None) -> None:
        """§3.2 MPI_GET_VIRTUAL_ADDR (see :meth:`put_virtual_addr`)."""
        self.get(origin, target_rank, vaddr, target,
                 flags=ext.VIRTUAL_ADDR)

    def put_all_opts(self, origin, target_world: int, vaddr: int) -> None:
        """§3.7 combined RMA fast path: global rank + static handle +
        virtual address + no PROC_NULL."""
        self.put(origin, target_world, vaddr, None,
                 flags=ext.ALL_OPTS_RMA)

    # -- validation ----------------------------------------------------------------

    def _check_rma(self, count: int, dtref, target_rank: int,
                   global_rank: bool):
        """RMA argument validation in Table 1's order: None when every
        argument is valid, else ``validate_args``' *failed*."""
        if count < 0:
            return 1, MPIErrCount(f"count must be >= 0, got {count}")
        if not dtref.datatype.committed:
            return 2, MPIErrDatatype(
                f"datatype {dtref.datatype.name} used before commit")
        if self.freed:
            return 3, MPIErrWin("operation on a freed window")
        if target_rank != PROC_NULL:
            limit = self.comm.world_size if global_rank else self.comm.size
            if not 0 <= target_rank < limit:
                return 4, MPIErrRank(
                    f"target {target_rank} outside [0, {limit})")
        return None

    # -- synchronization ---------------------------------------------------------

    def fence(self) -> None:
        """MPI_WIN_FENCE: close the active epoch everywhere (barrier
        plus completion of all pending operations)."""
        self.flush_all()
        self.comm.barrier()
        if self.proc.hooks is not None:
            self.proc.hooks.win_fence(self)

    def lock(self, target_rank: int,
             lock_type: str = LOCK_EXCLUSIVE) -> None:
        """MPI_WIN_LOCK: open a passive epoch at *target_rank*."""
        if target_rank in self._held_locks:
            raise MPIErrRMASync(
                f"window already locked at target {target_rank}")
        target_world = self.comm.world_rank_of(target_rank)
        # A blocked wait like any other: a failure detector must not
        # take a rank queued behind another epoch for a dead one.
        with blocked_wait(self.proc.hooks, "window lock"):
            self.state_of(target_world).epoch_lock.acquire(
                lock_type, self.comm.world.abort_event)
        self._held_locks[target_rank] = lock_type

    def unlock(self, target_rank: int) -> None:
        """MPI_WIN_UNLOCK: complete pending ops and close the epoch."""
        try:
            lock_type = self._held_locks.pop(target_rank)
        except KeyError:
            raise MPIErrRMASync(
                f"unlock without lock at target {target_rank}") from None
        self.flush(target_rank)
        target_world = self.comm.world_rank_of(target_rank)
        self.state_of(target_world).epoch_lock.release(lock_type)

    def lock_all(self) -> None:
        """MPI_WIN_LOCK_ALL (shared mode everywhere)."""
        for r in range(self.comm.size):
            self.lock(r, LOCK_SHARED)

    def unlock_all(self) -> None:
        """MPI_WIN_UNLOCK_ALL."""
        for r in list(self._held_locks):
            self.unlock(r)

    def flush(self, target_rank: int) -> None:
        """MPI_WIN_FLUSH: complete pending ops toward *target_rank*
        (merges their completion time into this rank's clock)."""
        target_world = self.comm.world_rank_of(target_rank)
        t = self._pending.pop(target_world, None)
        if t is not None:
            self.proc.vclock.merge(t)

    def flush_all(self) -> None:
        """MPI_WIN_FLUSH_ALL."""
        if self._pending:
            self.proc.vclock.merge(max(self._pending.values()))
            self._pending.clear()

    # -- generalized active target (PSCW) ------------------------------------

    #: Tag base for post/start/complete/wait notifications; each window
    #: uses a disjoint pair derived from its id.
    _PSCW_TAG_BASE = (1 << 19) + 64

    def _pscw_tags(self) -> tuple[int, int]:
        base = Window._PSCW_TAG_BASE + 2 * self.win_id
        return base, base + 1   # (post, complete)

    def post(self, origin_ranks: Sequence[int]) -> None:
        """MPI_WIN_POST: expose the local window to *origin_ranks*
        (communicator ranks); they may access it after their matching
        :meth:`start`."""
        if getattr(self, "_exposure", None):
            raise MPIErrRMASync("post while an exposure epoch is open")
        post_tag, _ = self._pscw_tags()
        self._exposure = list(origin_ranks)
        for origin in self._exposure:
            self.comm._isend_bytes(b"", origin, post_tag)

    def start(self, target_ranks: Sequence[int]) -> None:
        """MPI_WIN_START: open an access epoch to *target_ranks*; blocks
        until each target has posted."""
        if getattr(self, "_access", None):
            raise MPIErrRMASync("start while an access epoch is open")
        post_tag, _ = self._pscw_tags()
        self._access = list(target_ranks)
        for target in self._access:
            self.comm._recv_bytes(target, post_tag)

    def complete(self) -> None:
        """MPI_WIN_COMPLETE: finish the access epoch opened by start."""
        targets = getattr(self, "_access", None)
        if not targets:
            raise MPIErrRMASync("complete without start")
        _, complete_tag = self._pscw_tags()
        for target in targets:
            self.flush(target)
            self.comm._isend_bytes(b"", target, complete_tag)
        self._access = None

    def wait_sync(self) -> None:
        """MPI_WIN_WAIT: close the exposure epoch opened by post
        (blocks until every granted origin completed)."""
        origins = getattr(self, "_exposure", None)
        if not origins:
            raise MPIErrRMASync("wait without post")
        _, complete_tag = self._pscw_tags()
        for origin in origins:
            self.comm._recv_bytes(origin, complete_tag)
        self._exposure = None

    def free(self) -> None:
        """MPI_WIN_FREE (collective): complete and drop the window."""
        self.fence()
        self.freed = True
        if self.proc.hooks is not None:
            self.proc.hooks.win_free(self)
