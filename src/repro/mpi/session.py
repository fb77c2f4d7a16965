"""MPI-4 sessions-style init/finalize for joining a running world.

The world-model of MPI-3.1 (and of :meth:`repro.runtime.world.World.run`)
is static: every rank exists at init and exits together.  The MPI-4
Sessions proposal breaks that coupling — an execution context can
initialize MPI independently, build communicators from process sets,
and finalize without a world-wide fence.  This module reproduces the
part the dynamic-process layer needs: a :class:`Session` lets *the
calling thread* join an already-running world as a fresh dynamic rank,
talk to it through connect/accept, and leave again while everyone
else keeps running.

A session rank is not a member of any pre-existing communicator
(groups snapshot their roster at creation); its communication surface
is the session's own single-rank communicator plus whatever
intercommunicators :meth:`Session.connect` produces.  On a detector
build the rank registers for heartbeat monitoring at init and departs
at finalize — so a session that ends cleanly is never declared dead,
while one whose thread silently vanishes is confirmed dead and
cleaned up through the ULFM path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import MPIErrComm
from repro.instrument.counter import install_counter, uninstall_counter
from repro.mpi.comm import Communicator
from repro.mpi.group import Group
from repro.mpi.intercomm import Intercommunicator, comm_connect

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.world import World


class Session:
    """One execution context's session with a running world.

    Construction is ``MPI_Session_init``: the calling thread becomes a
    fresh dynamic rank of *world* (the world grows by one), with its
    own instruction counter installed on the thread and — on a
    detector build — heartbeat monitoring registered.  Use as a
    context manager, or call :meth:`finalize` explicitly.

    Parameters
    ----------
    world:
        The running world to join.
    name:
        Label for the session's single-rank communicator.
    """

    def __init__(self, world: "World", name: str = "session"):
        (proc,) = world.add_ranks(1)
        self.world = world
        self.proc = proc
        self.name = name
        self._finalized = False
        install_counter(proc.counter)
        if proc.hooks is not None:
            proc.hooks.monitor()
        #: The session's own communicator (``MPI_Comm_create_from_group``
        #: over the singleton process set) — the local side of every
        #: :meth:`connect`.
        self.comm = Communicator(
            proc, Group([proc.world_rank]), world.alloc_context_id(),
            name=f"{name}.{proc.world_rank}")

    @property
    def finalized(self) -> bool:
        """Has :meth:`finalize` run?"""
        return self._finalized

    def connect(self, port_name: str, retries: int = 20,
                backoff_s: float = 0.05) -> Intercommunicator:
        """Connect this session to a server's port
        (:func:`repro.mpi.intercomm.comm_connect` over the session
        communicator)."""
        self._check_active("connect")
        return comm_connect(port_name, self.comm, retries=retries,
                            backoff_s=backoff_s)

    def finalize(self) -> None:
        """``MPI_Session_finalize``: leave the world cleanly.

        A clean rank exit, as at the end of a world rank's function
        (the seam's ``rank_exit``: reliability stash drained, heartbeat
        roster departed — a finalized session is never declared dead —
        and the sanitizer's books closed); then uninstalls the thread's
        instruction counter.  Idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        if self.proc.hooks is not None:
            self.proc.hooks.rank_exit()
        uninstall_counter()

    def _check_active(self, op: str) -> None:
        """Raise on use after finalize."""
        if self._finalized:
            raise MPIErrComm(f"session {self.name!r} is finalized",
                             op=op)

    def __enter__(self) -> "Session":
        """Context-manager entry (the session is already initialized)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: finalize."""
        self.finalize()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "finalized" if self._finalized else "active"
        return f"Session(rank={self.proc.world_rank}, {state})"
