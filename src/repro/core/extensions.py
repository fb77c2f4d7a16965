"""The Section 3 proposed MPI-standard extensions, as descriptor flags.

Each proposal becomes a flag on :class:`ExtFlags`; the public API
surfaces them as the new functions the paper names
(``comm.isend_global``, ``win.put_virtual_addr``,
``comm.isend_npn``, ``comm.isend_noreq`` + ``comm.waitall_noreq``,
``comm.isend_nomatch``, ``comm.isend_all_opts``), all implemented by
the same CH4 fast path with the corresponding flags set.

Flag semantics
--------------

``global_rank`` (§3.1)
    The destination is already an MPI_COMM_WORLD rank (the caller
    pre-translated via ``group.translate_ranks``); the device skips
    communicator rank translation.  Not intercommunicator-safe, per
    the paper.
``virtual_addr`` (§3.2, RMA only)
    The target location is a pre-resolved virtual address (obtained
    once via ``win.remote_addr``); the device skips offset
    translation.
``static_comm`` (§3.3)
    The communicator (or window) is one of the precreated handles
    (``MPI_COMM_1``...); object lookup is a static-index load.
``no_proc_null`` (§3.4)
    The caller guarantees the destination is not MPI_PROC_NULL; the
    device performs no check, and violating the guarantee is a caught
    contract error in builds with error checking (undefined behaviour
    in the paper's terms).
``noreq`` (§3.5)
    No request object is returned; completion is bulk, via
    ``comm.waitall_noreq``.
``nomatch`` (§3.6)
    Source/tag match bits are disabled; messages match in arrival
    order within the communicator context.

When every flag applicable to a path is set, the descriptor write
itself fuses (§3.7's ``MPI_ISEND_ALL_OPTS`` "common roof"), dropping
the residual cost — that synergy is what lands the combined path on
the paper's 16 instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import MPIErrArg


@dataclass(frozen=True)
class ExtFlags:
    """Per-operation extension selection (all off = plain MPI-3.1)."""

    global_rank: bool = False
    virtual_addr: bool = False
    static_comm: bool = False
    no_proc_null: bool = False
    noreq: bool = False
    nomatch: bool = False

    def __post_init__(self):
        # ``bits``: the flags as one int — a charge-plan key component
        # that hashes in C, unlike the dataclass's generated __hash__.
        object.__setattr__(self, "bits", sum(
            flag << i for i, flag in enumerate(
                (self.global_rank, self.virtual_addr, self.static_comm,
                 self.no_proc_null, self.noreq, self.nomatch))))

    @property
    def any(self) -> bool:
        """True when at least one extension is selected."""
        return (self.global_rank or self.virtual_addr or self.static_comm
                or self.no_proc_null or self.noreq or self.nomatch)

    @property
    def fused_pt2pt(self) -> bool:
        """True when the pt2pt descriptor fuses (§3.7): every parameter
        on the send path is static."""
        return (self.global_rank and self.static_comm
                and self.no_proc_null and self.noreq and self.nomatch)

    @property
    def fused_rma(self) -> bool:
        """True when the RMA descriptor fuses: rank, window, address
        and PROC_NULL handling are all static."""
        return (self.global_rank and self.static_comm
                and self.virtual_addr and self.no_proc_null)

    def __or__(self, other: "ExtFlags") -> "ExtFlags":
        return ExtFlags(
            global_rank=self.global_rank or other.global_rank,
            virtual_addr=self.virtual_addr or other.virtual_addr,
            static_comm=self.static_comm or other.static_comm,
            no_proc_null=self.no_proc_null or other.no_proc_null,
            noreq=self.noreq or other.noreq,
            nomatch=self.nomatch or other.nomatch,
        )

    def with_(self, **kwargs) -> "ExtFlags":
        """A copy with the given flags changed."""
        return replace(self, **kwargs)


#: Plain MPI-3.1 semantics.
NONE = ExtFlags()

#: §3.1 MPI_ISEND_GLOBAL.
GLOBAL_RANK = ExtFlags(global_rank=True)
#: §3.2 MPI_PUT_VIRTUAL_ADDR.
VIRTUAL_ADDR = ExtFlags(virtual_addr=True)
#: §3.3 predefined communicator/window handles.
STATIC_COMM = ExtFlags(static_comm=True)
#: §3.4 MPI_ISEND_NPN.
NO_PROC_NULL = ExtFlags(no_proc_null=True)
#: §3.5 MPI_ISEND_NOREQ.
NOREQ = ExtFlags(noreq=True)
#: §3.6 MPI_ISEND_NOMATCH.
NOMATCH = ExtFlags(nomatch=True)

#: §3.7 MPI_ISEND_ALL_OPTS — everything at once.
ALL_OPTS_PT2PT = ExtFlags(global_rank=True, static_comm=True,
                          no_proc_null=True, noreq=True, nomatch=True)
#: The receive side of an ALL_OPTS stream: a request IS returned.
ALL_OPTS_RECV = ALL_OPTS_PT2PT.with_(noreq=False)

#: §3.7 for RMA (our construction; the paper quotes only the pt2pt 16).
ALL_OPTS_RMA = ExtFlags(global_rank=True, static_comm=True,
                        virtual_addr=True, no_proc_null=True)


# ---------------------------------------------------------------------------
# ULFM-style recovery entry points (MPIX_Comm_*)
# ---------------------------------------------------------------------------
#
# The User-Level Failure Mitigation proposal's three core operations, in
# the fault-tolerance model of :mod:`repro.ft`: revoke poisons a
# communicator everywhere, shrink collectively rebuilds it over the
# survivors, agree is a fault-aware boolean AND.  All three require a
# build with a ``fault_plan`` (that is what creates the world-global
# failure state they coordinate through).


def _world_ft(comm):
    """The world's failure state (the seam's recovery state), or
    ``MPI_ERR_ARG`` when the build has no fault plan (plain builds
    carry no failure-detection machinery)."""
    hooks = comm.proc.hooks
    ft = hooks.recovery() if hooks is not None else None
    if ft is None:
        raise MPIErrArg(
            "MPIX_Comm_* recovery requires a fault-tolerant build; "
            "pass BuildConfig(fault_plan=FaultPlan()) — an all-zero "
            "plan enables recovery on a lossless wire")
    return ft


def MPIX_Comm_revoke(comm) -> None:
    """ULFM MPIX_COMM_REVOKE: mark *comm*'s context revoked on every
    rank.  Subsequent operations on any handle to this context raise
    ``MPI_ERR_REVOKED`` (through the handle's error handler), which is
    how survivors still blocked inside the communicator learn that
    recovery has begun."""
    _world_ft(comm).revoke(comm.ctx)


def MPIX_Comm_shrink(comm, name=None):
    """ULFM MPIX_COMM_SHRINK: collectively build a new communicator
    over the surviving members of *comm*.

    Safe to call on a revoked communicator (that is its purpose).  The
    survivors rendezvous outside the revoked context, the first to
    complete allocates the fresh context id, and every caller returns
    a working :class:`~repro.mpi.comm.Communicator` over the agreed
    alive group, inheriting *comm*'s error handler.
    """
    ft = _world_ft(comm)
    proc = comm.proc
    # Per-handle shrink counter so repeated shrinks of the same context
    # rendezvous under distinct keys (each rank's handle advances in
    # lockstep because shrink is collective).
    epoch = getattr(comm, "_shrink_epoch", 0)
    comm._shrink_epoch = epoch + 1
    members = tuple(comm.group.world_ranks)

    def _build(payloads: dict) -> tuple:
        """First completer: agree on the alive roster + a fresh ctx."""
        return (proc.world.alloc_context_id(), tuple(sorted(payloads)))

    new_ctx, alive = ft.rendezvous(
        ("shrink", comm.ctx, epoch), proc.world_rank, members,
        reducer=_build)
    # Invalidate the hierarchical-collective subcommunicator cache:
    # its node-local/leader communicators snapshot the pre-failure
    # roster, and a staged phase over a stale subcommunicator would
    # wait on the dead rank forever.  The shrunk communicator rebuilds
    # its own hierarchy on first use.
    comm._hier_ctx = None
    from repro.mpi.comm import Communicator
    from repro.mpi.group import Group
    shrunk = Communicator(proc, Group(alive), new_ctx,
                          name=name or f"{comm.name}.shrink")
    shrunk._errhandler = comm._errhandler
    return shrunk


def MPIX_Comm_agree(comm, flag: bool = True) -> bool:
    """ULFM MPIX_COMM_AGREE: fault-aware boolean AND across the
    surviving members of *comm* — the agreement survivors use to decide
    whether the epoch's work succeeded before (or instead of)
    revoking.  Ranks that die during the agreement are excluded rather
    than hanging it."""
    ft = _world_ft(comm)
    epoch = getattr(comm, "_agree_epoch", 0)
    comm._agree_epoch = epoch + 1
    members = tuple(comm.group.world_ranks)
    return bool(ft.rendezvous(
        ("agree", comm.ctx, epoch), comm.proc.world_rank, members,
        payload=bool(flag),
        reducer=lambda payloads: all(payloads.values())))
