"""The dynamic sanitizer: opt-in runtime correctness checking.

Enabled by ``BuildConfig(sanitize=True)``.  One :class:`WorldSanitizer`
per world owns the cross-rank wait-for graph; each rank gets a
:class:`RankSanitizer` view whose ``note_*`` hooks the rank's seam
(:mod:`repro.runtime.hooks`) calls on the request, device, window, and
world layers' events.  The hooks charge nothing, and with
``sanitize=False`` (the default) the seam binds none of them, so the
charged instruction accounting is byte-identical to an unsanitized
build — the zero-overhead-when-disabled guarantee
``benchmarks/bench_sanitize.py`` asserts.

Checks implemented here (rule ids in
:data:`repro.sanitize.diagnostics.RULES`):

* **MSD201** — deadlock: wait-for cycle or verified global stall (see
  :mod:`repro.sanitize.waitgraph`), reported with per-rank stacks.
* **MSD202** — request leak: requests never completed-and-waited when
  the rank's application function returns.
* **MSD203** — send-buffer ownership: the buffer's packed bytes are
  checksummed at post time and re-checked at completion.
* **MSD204** — RMA epoch: every put/get/accumulate must land inside a
  fence epoch, a held passive lock, or a PSCW access epoch.
"""

from __future__ import annotations

import sys
import traceback
import zlib
from typing import TYPE_CHECKING, Optional

from repro.consts import ANY_SOURCE
from repro.sanitize.diagnostics import SanitizerError
from repro.sanitize.waitgraph import BlockEntry, WaitForGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc
    from repro.runtime.request import Request
    from repro.runtime.world import World

#: Frames kept in deadlock-report stacks.
_STACK_DEPTH = 10


def _user_site() -> str:
    """``file:line`` of the innermost non-library frame (the MPI call
    site in application/test code), for leak and deadlock reports."""
    frame = sys._getframe(2)
    site = None
    while frame is not None:
        filename = frame.f_code.co_filename
        site = f"{filename}:{frame.f_lineno}"
        if "/repro/" not in filename.replace("\\", "/"):
            break
        frame = frame.f_back
    return site or "<unknown>"


class ReqRecord:
    """Lifetime record of one in-flight request (owning thread only)."""

    __slots__ = ("request", "api", "site", "peer", "crc", "pack_args",
                 "view")

    def __init__(self, request: "Request", api: Optional[str], site: str):
        self.request = request
        self.api = api
        self.site = site
        #: The only world rank able to complete this operation (concrete
        #: -source receives, synchronous sends), or None.
        self.peer: Optional[int] = None
        #: CRC of the packed send buffer at post time (buffer sends).
        self.crc: Optional[int] = None
        #: ``(buf, count, datatype)`` to re-pack at completion
        #: (copying-path sends only).
        self.pack_args: Optional[tuple] = None
        #: The zero-copy payload view itself, when the send carried
        #: one: it reads through to the user buffer, so re-checksumming
        #: it at completion detects mutation with no re-pack.
        self.view: Optional[memoryview] = None

    def describe(self) -> str:
        """One line for leak / teardown / deadlock reports."""
        label = self.api or self.request.kind.value
        state = ("complete, never waited/tested"
                 if self.request.is_complete() else "incomplete")
        peer = f", peer rank {self.peer}" if self.peer is not None else ""
        return f"{label} issued at {self.site}{peer} ({state})"


class RankSanitizer:
    """One rank's sanitizer view.  All ``note_*`` hooks run on the
    owning rank's thread (request completion bookkeeping happens in
    ``wait``/``test``, not in the completing thread), so the record
    table needs no lock; only the wait-for graph is shared."""

    def __init__(self, world_san: "WorldSanitizer", proc: "Proc"):
        self.world_san = world_san
        self.proc = proc
        self.rank = proc.world_rank
        self.graph = world_san.graph
        self._records: dict[int, ReqRecord] = {}
        self._api: Optional[str] = None
        self._fenced: set[int] = set()

    def reset(self) -> None:
        """Start of a run: drop records left by an aborted previous run."""
        self._records.clear()
        self._api = None

    # -- API-layer hook --------------------------------------------------------

    def note_api(self, name: Optional[str]) -> None:
        """``mpi_entry`` reports the MPI routine being executed, so
        leak and deadlock reports can name it (an unnamed entry keeps
        the last label)."""
        if name is not None:
            self._api = name

    # -- request lifetime ------------------------------------------------------

    def note_acquire(self, request: "Request",
                     api: Optional[str] = None) -> None:
        """A request handle was produced for a new operation."""
        self._records[id(request)] = ReqRecord(
            request, api if api is not None else self._api, _user_site())

    def note_send(self, request: "Request", dest_world: int, sync: bool,
                  payload: bytes, pack_args: Optional[tuple]) -> None:
        """A send was issued: arm the buffer-ownership check and, for
        synchronous mode, the wait-for edge toward the destination."""
        rec = self._records.get(id(request))
        if rec is None:
            return
        if sync:
            rec.peer = dest_world
        if pack_args is not None:
            # crc32 reads any buffer (bytes, memoryview, ndarray), so
            # zero-copy payload views checksum without materializing.
            rec.crc = zlib.crc32(payload)
            if isinstance(payload, memoryview):
                # Zero-copy send: the view reads through to the user
                # buffer, so the completion check re-checksums it
                # directly instead of re-packing (a re-pack would
                # materialize bytes and perturb the copy census).
                rec.view = payload
            else:
                rec.pack_args = pack_args

    def note_recv(self, request: "Request",
                  src_world: Optional[int]) -> None:
        """A receive was posted; *src_world* is the only rank that can
        match it (None for wildcard / arrival-order receives)."""
        rec = self._records.get(id(request))
        if rec is not None:
            rec.peer = src_world

    def note_finish(self, request: "Request") -> None:
        """``wait``/``test`` observed completion: close the record and
        run the buffer-ownership check (MSD203)."""
        rec = self._records.pop(id(request), None)
        if rec is None or rec.crc is None or request.cancelled:
            return
        if rec.view is not None:
            mutated = zlib.crc32(rec.view) != rec.crc
        else:
            from repro.datatypes.pack import pack
            buf, count, datatype = rec.pack_args
            mutated = zlib.crc32(pack(buf, count, datatype)) != rec.crc
        if mutated:
            raise SanitizerError(
                "MSD203",
                f"send buffer of {rec.api or 'send'} issued at "
                f"{rec.site} was modified before the operation "
                "completed — the application owns the buffer only "
                "after wait()/test() succeeds")

    def note_on_complete(self, request: "Request") -> None:
        """``on_complete``/``attach_continuation`` was called: the
        handle's lifetime must still be open (MS109).  A continuation
        attached after ``wait``/``test`` closed the record targets a
        handle the pool may already have recycled, so the callback can
        fire against a *different* operation's completion."""
        if id(request) not in self._records:
            raise SanitizerError(
                "MS109",
                f"on_complete() attached at {_user_site()} to a "
                "request whose lifetime already ended (waited/tested "
                "and possibly recycled by the request pool) — attach "
                "the continuation before wait()/test(), while the "
                "handle is still live")

    def note_cancel(self, request: "Request") -> None:
        """MPI_CANCEL closed the request's lifetime."""
        self._records.pop(id(request), None)

    def note_release(self, request: "Request") -> None:
        """The handle returned to the pool (internal lifetime over)."""
        self._records.pop(id(request), None)

    # -- blocking / deadlock ---------------------------------------------------

    def note_block_request(self, request: "Request") -> None:
        """About to block in ``wait``: register the wait-for edge and
        look for a deadlock this block completes (raises MSD201)."""
        rec = self._records.get(id(request))
        desc = rec.describe() if rec is not None \
            else f"{request.kind.value} wait"
        entry = BlockEntry(
            rank=self.rank, desc=desc,
            peer=rec.peer if rec is not None else None,
            verify=lambda: not request.is_complete(),
            stack="".join(traceback.format_stack(limit=_STACK_DEPTH)))
        report = self.graph.block(entry)
        if report is not None:
            raise SanitizerError("MSD201", report)

    def note_block_probe(self, comm, source: int, tag: int) -> None:
        """About to block in MPI_PROBE (same contract as request
        blocks; verified through a nonblocking engine probe).  The
        wait-for edge is concrete only for a concrete *source*."""
        engine, ctx = self.proc.engine, comm.ctx
        entry = BlockEntry(
            rank=self.rank,
            desc=f"MPI_Probe(source={source}, tag={tag}) "
                 f"issued at {_user_site()}",
            peer=(None if source == ANY_SOURCE
                  else comm.world_rank_of(source)),
            verify=lambda: engine.iprobe(ctx, source, tag) is None,
            stack="".join(traceback.format_stack(limit=_STACK_DEPTH)))
        report = self.graph.block(entry)
        if report is not None:
            raise SanitizerError("MSD201", report)

    def note_unblock(self) -> None:
        """The block ended (completion, abort, or error)."""
        self.graph.unblock(self.rank)

    # -- RMA epochs ------------------------------------------------------------

    def note_fence(self, win) -> None:
        """MPI_WIN_FENCE ran: accesses on this window are epoch-legal
        from here on (until the window is freed)."""
        self._fenced.add(win.win_id)

    def note_win_free(self, win) -> None:
        """The window was freed: drop its fence-epoch state."""
        self._fenced.discard(win.win_id)

    def check_rma(self, win, target_rank: int) -> None:
        """Validate that an RMA access lands inside an open epoch
        (fence, held passive lock, or PSCW access) — MSD204."""
        if win.win_id in self._fenced:
            return
        if target_rank in win._held_locks:
            return
        access = getattr(win, "_access", None)
        if access and target_rank in access:
            return
        raise SanitizerError(
            "MSD204",
            f"RMA access to rank {target_rank} on window "
            f"{win.name!r} at {_user_site()} outside any epoch — open "
            "a fence, passive lock (lock/lock_all), or PSCW access "
            "epoch (start) first")

    # -- finalize --------------------------------------------------------------

    def finalize(self) -> None:
        """End of the rank's application function: close out the rank.

        Marks the rank done in the wait-for graph (which may expose a
        certain stall among the still-running ranks — MSD201) and then
        reports any requests whose lifetime never ended (MSD202).
        """
        stall = self.graph.mark_done(self.rank)
        if stall is not None:
            raise SanitizerError("MSD201", stall)
        if self._records:
            raise SanitizerError("MSD202", self.leak_report())

    def leak_report(self) -> str:
        """The MSD202 message body for this rank's open records."""
        lines = [f"rank {self.rank} finished with "
                 f"{len(self._records)} unfinished request(s):"]
        for rec in self._records.values():
            lines.append(f"  {rec.describe()}")
        lines.append("wait/test every request (waitall for lists) "
                     "before returning from the rank function")
        return "\n".join(lines)

    def pending_lines(self) -> list[str]:
        """Open-record summaries for the world teardown report."""
        return [f"rank {self.rank}: {rec.describe()}"
                for rec in self._records.values()]


class WorldSanitizer:
    """World-level sanitizer state: the wait-for graph and the per-rank
    views (``BuildConfig(sanitize=True)`` only)."""

    def __init__(self, world: "World"):
        self.world = world
        self.graph = WaitForGraph(world.nranks)
        self._ranks: list[RankSanitizer] = []

    def rank_view(self, proc: "Proc") -> RankSanitizer:
        """The per-rank sanitizer bound to *proc* (called once per rank
        at world construction, in rank order)."""
        view = RankSanitizer(self, proc)
        self._ranks.append(view)
        return view

    def begin_run(self) -> None:
        """Reset cross-run state at the top of :meth:`World.run`."""
        self.graph.reset()
        for view in self._ranks:
            view.reset()

    def pending_summary(self) -> str:
        """Still-open request lifetimes across all ranks — appended to
        the world's hang/teardown diagnostics instead of silently
        dropping the pending operations."""
        lines: list[str] = []
        for view in self._ranks:
            lines.extend(view.pending_lines())
        if not lines:
            return "no tracked requests pending"
        return "pending requests at teardown:\n  " + "\n  ".join(lines)
